"""Byte-for-byte oracle: CLI reports of the scheme and distribution commands.

The files under ``tests/golden/`` hold the reports as the CLI printed them:
``verify`` and ``pipeline`` in machine format, ``pipeline`` again in text
format, and ``separator`` in machine format (``--gap 4`` on a Sum scheme,
``--bracket-c 4 --relax`` on a Match scheme).  The distribution files under
``tests/golden/inputs/`` are read by ``entropy`` (joint and conditional),
``goodset cells``, ``goodset blocks`` (on the support, for bit outcomes) and
``entropy-sum --dist``, each in machine and text format, and
``entropy-sum --uniform`` runs the closed binomial form on four parameter
sets, in machine and text format too.  Regenerate them
only for a change that means to move a report, and say which fields moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
import tempfile
from itertools import product

import pytest

from cellprobe.cli import main
from cellprobe.core import DOMAIN_ALL, KIND_MATCH, KIND_SUM, Scheme, TableDecoder, TableEncoder
from cellprobe.schemeio import save_scheme
from cellprobe.schemes import (
    build_bracket_table,
    build_precomputed_sums,
    build_raw_identity,
    build_two_level_rank,
)

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


# name -> (scheme builder, pipeline c)
CASES = {
    "mirror16": (_mirror, "2"),
    "two_level_rank16": (lambda: build_two_level_rank(16, 4, 8, 17), "2"),
    # every 6-cell subset fails by the support bound (17^6 points, 2^16 inputs)
    "two_level_rank16_2_4": (lambda: build_two_level_rank(16, 2, 4, 17), "2"),
    "bracket_table14": (lambda: build_bracket_table(14), "4"),
    "precomputed_sums8": (lambda: build_precomputed_sums(8), "2"),
    "raw_identity8": (lambda: build_raw_identity(8, 4), "2"),
}


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{out.getvalue()}exit={code}\n"


def render(name: str, workdir: str) -> dict[str, str]:
    build, c = CASES[name]
    path = os.path.join(workdir, f"{name}.scm")
    scheme = build()
    save_scheme(scheme, path)
    separator = ["--bracket-c", "4", "--relax"] if scheme.kind == KIND_MATCH else ["--gap", "4"]
    return {
        "verify": _run(["verify", "--scheme", path, "--format", "machine"]),
        "pipeline": _run(["pipeline", "--scheme", path, "--c", c, "--format", "machine"]),
        "pipeline-text": _run(["pipeline", "--scheme", path, "--c", c, "--format", "text"]),
        "separator": _run(["separator", "--scheme", path, *separator, "--format", "machine"]),
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


RENDERERS = {**{name: render for name in CASES}, **{name: render_dist for name in DIST_CASES},
             **{name: render_uniform for name in UNIFORM_CASES}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name, tmp_path):
    for command, text in render(name, str(tmp_path)).items():
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(RENDERERS):
            for command, text in RENDERERS[case](case, tmp).items():
                with open(os.path.join(GOLDEN, f"{case}.{command}.txt"), "w", encoding="ascii") as fh:
                    fh.write(text)
                sys.stdout.write(f"wrote {case}.{command}.txt\n")
