"""Byte-for-byte oracle: CLI reports of the scheme and distribution commands.

The files under ``tests/golden/`` hold the reports as the CLI printed them,
each in machine and text format with its exit code.  On each scheme:
``verify``, ``redundancy``, ``pipeline`` and ``separator`` (``--gap 4`` on a
Sum scheme, ``--bracket-c 4`` on a Match scheme); a larger scheme that
guards a kernel is pinned by its ``verify`` and ``pipeline`` machine reports
alone.  The distribution
files under ``tests/golden/inputs/`` are read by ``entropy`` (joint and
conditional), ``goodset cells``, ``goodset blocks`` (on the support, for bit
outcomes) and ``entropy-sum --dist``; ``entropy-sum --uniform`` runs the
closed binomial form on four parameter sets.  The commands that read no file
(``stretcher``, ``brackets`` in its four modes and ``build-scheme``) are
pinned too.  Regenerate them only for a change that means to move a report,
and say which fields moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from itertools import product

import numpy as np
import pytest

import reference
from cellprobe.cli import OUTDIR_ENV, main
from cellprobe.core import (
    DOMAIN_ALL,
    DOMAIN_BAL,
    KIND_MATCH,
    KIND_SUM,
    Scheme,
    TableDecoder,
    TableEncoder,
)
from cellprobe.infotheory import columns_tv
from cellprobe.schemeio import save_scheme
from cellprobe.schemes import (
    build_bracket_table,
    build_precomputed_sums,
    build_raw_identity,
    build_two_level_rank,
)
from cellprobe.textfmt import machine_value

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")


def _mirror():
    """Identity encoder over 16 cells; query i reads cell i-1 back (wrong on purpose)."""
    return Scheme(
        n=16, u=16, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
        probes=tuple((i,) for i in range(16)),
        encoder=TableEncoder({x: x for x in product((0, 1), repeat=16)}),
        decoders=(TableDecoder({(0,): 0, (1,): 1}),) * 16,
    )


def _match8(probe):
    """Match scheme over n = 8 with one cell that always holds 0; every query probes ``probe``."""
    return Scheme(
        n=8, u=1, cell_alphabet=2, domain=DOMAIN_BAL, kind=KIND_MATCH,
        probes=(probe,) * 8,
        encoder=TableEncoder({x: (0,) for x in reference.enumerate_bal(8)}),
        decoders=(TableDecoder({tuple(0 for _ in probe): 0}),) * 8,
    )


# name -> (scheme builder, pipeline c)
CASES = {
    "mirror16": (_mirror, "2"),
    "two_level_rank16": (lambda: build_two_level_rank(16, 4, 8, 17), "2"),
    # every 6-cell subset fails by the support bound (17^6 points, 2^16 inputs)
    "two_level_rank16_2_4": (lambda: build_two_level_rank(16, 2, 4, 17), "2"),
    "bracket_table14": (lambda: build_bracket_table(14), "4"),
    "precomputed_sums8": (lambda: build_precomputed_sums(8), "2"),
    "raw_identity8": (lambda: build_raw_identity(8, 4), "2"),
    # a correct Sum scheme whose run reaches chain lines 0-7
    "precomputed_sums8_c11_10": (lambda: build_precomputed_sums(8), "11/10"),
    # the sweep sticks at 2 with window (3, 4, 5) after one pair; the run completes
    "precomputed_sums6_c11_10": (lambda: build_precomputed_sums(6), "11/10"),
    # the sweep sticks at 0 with no pair, so the run is truncated at stretcher
    "precomputed_sums4_c11_10": (lambda: build_precomputed_sums(4), "11/10"),
    # the good prefixes carry under 1/4 of the mass: truncated at entropy-sum, exit 1
    "raw_identity4_c3_2": (lambda: build_raw_identity(4, 16), "3/2"),
    # no query probes a cell, so V2 is all of V and its pairs stay close: exit 0
    "match_blind8": (lambda: _match8(()), "4"),
    # every query probes cell 0, so V holds one query: truncated at close-pairs, exit 1
    "match_shared8": (lambda: _match8((0,)), "4"),
}


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{out.getvalue()}exit={code}\n"


# name -> (scheme builder, pipeline c) of the schemes too large for all eight reports,
# pinned by their verify and pipeline machine reports: bracket_table(24) runs the
# partner scan over 208,012 rows in 51 blocks, with partner distances up to 23
KERNEL_CASES = {"bracket_table24": (lambda: build_bracket_table(24), "4")}


def render_kernel(name: str, workdir: str) -> dict[str, str]:
    build, c = KERNEL_CASES[name]
    path = os.path.join(workdir, f"{name}.scm")
    save_scheme(build(), path)
    return {
        "verify": _run(["verify", "--scheme", path, "--format", "machine"]),
        "pipeline": _run(["pipeline", "--scheme", path, "--c", c, "--format", "machine"]),
    }


def render(name: str, workdir: str) -> dict[str, str]:
    build, c = CASES[name]
    path = os.path.join(workdir, f"{name}.scm")
    scheme = build()
    save_scheme(scheme, path)
    separator = ["--bracket-c", "4"] if scheme.kind == KIND_MATCH else ["--gap", "4"]
    return {
        "verify": _run(["verify", "--scheme", path, "--format", "machine"]),
        "verify-text": _run(["verify", "--scheme", path, "--format", "text"]),
        "redundancy": _run(["redundancy", "--scheme", path, "--format", "machine"]),
        "redundancy-text": _run(["redundancy", "--scheme", path, "--format", "text"]),
        "pipeline": _run(["pipeline", "--scheme", path, "--c", c, "--format", "machine"]),
        "pipeline-text": _run(["pipeline", "--scheme", path, "--c", c, "--format", "text"]),
        "separator": _run(["separator", "--scheme", path, *separator, "--format", "machine"]),
        "separator-text": _run(["separator", "--scheme", path, *separator, "--format", "text"]),
    }


# distribution file name -> cell alphabet
DIST_CASES = {"uniform4": 2, "skewed3": 3, "primes4": 2}


def render_dist(name: str, workdir: str) -> dict[str, str]:
    alphabet = DIST_CASES[name]
    path = os.path.join(INPUTS, f"{name}.dist")
    with open(path, encoding="ascii") as fh:
        outcomes = [line.split()[0].split(",") for line in fh if not line.startswith("#")]
    arity = len(outcomes[0])
    commands = {
        "entropy": ["entropy", "--dist", path],
        "entropy-given": ["entropy", "--dist", path, "--target", "1,2", "--given", "0"],
        "goodset-cells": ["goodset", "cells", "--dist", path, "--q", "2", "--eta", "1/5",
                          "--alphabet", str(alphabet)],
        "entropy-sum": ["entropy-sum", "--dist", path, "--p", "1", "--i", "2",
                        "--j", str(arity), "--c", "1"],
    }
    if alphabet == 2:
        x_path = os.path.join(workdir, f"{name}.bits")
        with open(x_path, "w", encoding="ascii") as fh:
            fh.writelines("".join(o) + "\n" for o in outcomes)
        commands["goodset-blocks"] = ["goodset", "blocks", "--x", x_path, "--sizes", "2,2",
                                      "--eps", "1/2"]
    texts = {}
    for command, argv in commands.items():
        texts[command] = _run([*argv, "--format", "machine"])
        texts[f"{command}-text"] = _run([*argv, "--format", "text"])
    return texts


# name -> entropy-sum --uniform arguments n, p, i, j, c
UNIFORM_CASES = {
    "binomial261": ("261", "1", "257", "261", "64"),     # exact s
    "binomial1024": ("1024", "256", "900", "932", "8"),  # float s
    "binomial40": ("40", "5", "21", "30", "7/3"),        # odd d, non-integer c
    "binomial41": ("41", "4", "21", "30", "7/3"),        # odd ell: s' is not an integer
}


def render_uniform(name: str, workdir: str) -> dict[str, str]:
    n, p, i, j, c = UNIFORM_CASES[name]
    argv = ["entropy-sum", "--uniform", n, "--p", p, "--i", i, "--j", j, "--c", c]
    return {"entropy-sum": _run([*argv, "--format", "machine"]),
            "entropy-sum-text": _run([*argv, "--format", "text"])}


# name -> {command: argv} for the commands that read no input file
TOOL_CASES = {
    "stretcher20": {"stretcher": ["stretcher", "--indices", ",".join(map(str, range(1, 21))),
                                  "--n", "256", "--c", "2"]},
    # the window (0, 1, 2, 4, 8) holds no pair at c = 11/10
    "stretcher_stuck": {"stretcher": ["stretcher", "--indices", "1,2,4,8", "--n", "16",
                                      "--c", "11/10"]},
    "brackets8": {
        "brackets-count": ["brackets", "count", "--n", "8"],
        "brackets-match": ["brackets", "match", "--x", "11010010", "--i", "2"],
        "brackets-walk": ["brackets", "walk", "--d", "8"],
        "brackets-list": ["brackets", "list", "--n", "8"],
    },
    # run in the work directory with a relative --out, so the printed path is stable
    "two_level_rank8": {"build-scheme": ["build-scheme", "--name", "two_level_rank", "--n", "8",
                                         "--alphabet", "9", "--param", "block=2",
                                         "--param", "superblock=4", "--out", "rank8.scm"]},
}


def render_tool(name: str, workdir: str) -> dict[str, str]:
    texts = {}
    cwd, outdir = os.getcwd(), os.environ.pop(OUTDIR_ENV, None)
    os.chdir(workdir)
    try:
        for command, argv in TOOL_CASES[name].items():
            texts[command] = _run([*argv, "--format", "machine"])
            texts[f"{command}-text"] = _run([*argv, "--format", "text"])
    finally:
        os.chdir(cwd)
        if outdir is not None:
            os.environ[OUTDIR_ENV] = outdir
    return texts


RENDERERS = {**{name: render for name in CASES}, **{name: render_dist for name in DIST_CASES},
             **{name: render_uniform for name in UNIFORM_CASES},
             **{name: render_tool for name in TOOL_CASES},
             **{name: render_kernel for name in KERNEL_CASES}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name, tmp_path):
    for command, text in render(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, f"{name}.{command}.txt"), encoding="ascii") as fh:
            assert text == fh.read(), f"{name} {command} report moved"


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_reports_match_golden(name, tmp_path):
    for command, text in render_kernel(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, f"{name}.{command}.txt"), encoding="ascii") as fh:
            assert text == fh.read(), f"{name} {command} report moved"


@pytest.mark.parametrize("name", sorted(DIST_CASES))
def test_distribution_reports_match_golden(name, tmp_path):
    for command, text in render_dist(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, f"{name}.{command}.txt"), encoding="ascii") as fh:
            assert text == fh.read(), f"{name} {command} report moved"


@pytest.mark.parametrize("name", sorted(UNIFORM_CASES))
def test_uniform_entropy_sum_reports_match_golden(name, tmp_path):
    for command, text in render_uniform(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, f"{name}.{command}.txt"), encoding="ascii") as fh:
            assert text == fh.read(), f"{name} {command} report moved"


@pytest.mark.parametrize("name", sorted(TOOL_CASES))
def test_tool_reports_match_golden(name, tmp_path):
    for command, text in render_tool(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, f"{name}.{command}.txt"), encoding="ascii") as fh:
            assert text == fh.read(), f"{name} {command} report moved"


@pytest.mark.parametrize("name, subsets", [("mirror16", 120), ("two_level_rank16_2_4", 0)])
def test_pair_test_reuses_the_subsets_good_cells_counted(name, subsets, tmp_path,
                                                         columns_tv_calls):
    """With q = 1 every V2 pair is a 2-subset good_cells already measured, so the pair
    test counts none of its own; where the support bound decides good cells, no subset
    is counted and the pair test counts each of its pairs.  The report does not move."""
    text = _pipeline_report(name, tmp_path)
    with open(os.path.join(GOLDEN, f"{name}.pipeline.txt"), encoding="ascii") as fh:
        assert text == fh.read()
    pairs = int(next(line for line in text.splitlines()
                     if line.startswith("stage.good-cells.pairs_tested=")).split("=")[1])
    assert columns_tv_calls == {"subsets": subsets, "pairs": 0 if subsets else pairs}


def _fields(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


@pytest.mark.parametrize("name, product", [
    ("mirror16", True),               # alphabet 2: (m-1)^2 = 1 <= 16 cells
    ("two_level_rank16_2_4", False),  # alphabet 17, and no subset past the support bound
    ("bracket_table20", False),       # alphabet 21: (m-1)^2 = 400 past 20 cells
])
def test_good_cells_multiplies_indicators_only_over_a_small_alphabet(name, product, tmp_path,
                                                                     monkeypatch):
    """The pair tables come out of the indicator product on mirror16 and out of one key
    per subset on the two others.  Each report stays as recorded: the golden file, or for
    bracket_table(20), which has none, the benchmark's recorded verdict, stages, checks
    and chain values of the same command."""
    import cellprobe.infotheory as infotheory

    routes = []
    for route in ("_product_tallies", "_keyed_tallies"):
        def spy(*args, _kernel=getattr(infotheory, route), _route=route):
            routes.append(_route)
            return _kernel(*args)
        monkeypatch.setattr(infotheory, route, spy)
    text = _pipeline_report(name, tmp_path)
    assert ("_product_tallies" in routes) == product and "_keyed_tallies" in routes
    if name in CASES:
        with open(os.path.join(GOLDEN, f"{name}.pipeline.txt"), encoding="ascii") as fh:
            assert text == fh.read()
        return
    _assert_as_benchmarked(text)


def _pipeline_report(name: str, tmp_path) -> str:
    """The machine pipeline report of a golden case, or of bracket_table(20) at c = 4."""
    build, c = CASES[name] if name in CASES else (lambda: build_bracket_table(20), "4")
    path = os.path.join(str(tmp_path), f"{name}.scm")
    save_scheme(build(), path)
    return _run(["pipeline", "--scheme", path, "--c", c, "--format", "machine"])


def _assert_as_benchmarked(text: str) -> None:
    """A bracket_table(20) pipeline report at c = 4, which has no golden, against the
    benchmark's recorded verdict, stages, checks and chain values of the same command."""
    bench = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "perfbench", "expected")
    with open(os.path.join(bench, "brackets20.json"), encoding="utf-8") as fh:
        want = json.load(fh)["pipeline"]
    fields = _fields(text)
    assert fields["verdict"] == want["verdict"] and text.endswith(f"exit={want['exit']}\n")
    assert list(dict.fromkeys(k.split(".")[1] for k in fields if k.startswith("stage."))) == \
        want["stages"]
    for group in ("checks", "chain_values"):
        assert {k: fields[k] for k in want[group]} == want[group]


def test_far_columns_decide_every_bracket_table20_pair(tmp_path, columns_tv_calls):
    """Every bracket_table(20) column lies farther from uniform than eta = 1/(cd) at
    c = 4, so good_cells hands the kernel no pair; V2 keeps one query, so the pair test
    counts none either.  The chosen entropy block is the first, a prefix, whose TV comes
    from the runs of X's sorted rows and equals ``columns_tv``'s count of its columns.
    The report does not move."""
    text = _pipeline_report("bracket_table20", tmp_path)
    _assert_as_benchmarked(text)
    fields = _fields(text)
    assert fields["stage.good-cells.pairs_tested"] == "0"
    assert columns_tv_calls == {"subsets": 0, "pairs": 0}
    assert fields["stage.cell-fixing.fixed_cells"] == "-"
    assert fields["stage.entropy-blocks.chosen_block"] == "1"
    hi = int(fields["stage.entropy-blocks.sizes"].split(",")[0])
    x = build_bracket_table(20).encoded()[0]
    (tv,) = columns_tv(x, [range(hi)], np.ones(len(x), dtype=np.int64), len(x), 2)
    assert fields["stage.entropy-blocks.block_tv"] == machine_value(tv)


@pytest.mark.parametrize("name, distinct", [("bracket_table14", True), ("mirror16", True),
                                            ("match_blind8", False), ("match_shared8", False)])
def test_y_is_grouped_only_when_its_keys_repeat(name, distinct, tmp_path, monkeypatch):
    """A correct scheme's Y has distinct rows, proven by distinct row keys, and is held as
    encoded; a constant cell repeats Y's rows, and Y is grouped as before.  With the key
    multiplier 0 each key is the last 64-bit word of a row's bytes, so the keys of
    distinct rows repeat too, and Y is grouped.  The golden report does not move in any
    of these runs."""
    import cellprobe.infotheory as infotheory
    import cellprobe.pipeline as pipeline

    answers = []

    def spy(rows, _kernel=infotheory.distinct_rows):
        answers.append(_kernel(rows))
        return answers[-1]

    monkeypatch.setattr(pipeline, "distinct_rows", spy)
    with open(os.path.join(GOLDEN, f"{name}.pipeline.txt"), encoding="ascii") as fh:
        want = fh.read()
    assert _pipeline_report(name, tmp_path) == want
    monkeypatch.setattr(infotheory, "_KEY_MULTIPLIER", np.uint64(0))
    assert _pipeline_report(name, tmp_path) == want
    assert answers == [distinct, False]


def test_the_preservation_check_decodes_each_query_once(tmp_path, decoder_calls):
    """mirror16 fixes no cell, so the reduced side rebuilds the base's own values and
    is never decoded: one decoder call per query, and the report does not move."""
    text = _pipeline_report("mirror16", tmp_path)
    with open(os.path.join(GOLDEN, "mirror16.pipeline.txt"), encoding="ascii") as fh:
        assert text == fh.read()
    assert decoder_calls["preserves_answers"] == 16


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(RENDERERS):
            for command, text in RENDERERS[case](case, tmp).items():
                with open(os.path.join(GOLDEN, f"{case}.{command}.txt"), "w", encoding="ascii") as fh:
                    fh.write(text)
                sys.stdout.write(f"wrote {case}.{command}.txt\n")
