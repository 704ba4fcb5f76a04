"""The four workloads: what set-up builds and what one closed-loop iteration runs.

Every workload is one process, one thread and one client: each command or
step call starts only after the previous one has returned, as a researcher
at a shell would run them.  The scheme workloads enumerate their whole
domain, so the seed does not change their inputs; it drives only the random
families of ``steps65536``.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

import outcomes


def run_cli(cp, argv) -> tuple[int, str]:
    """``cellprobe <argv>`` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cp.cli.main(list(argv))
    return code, out.getvalue()


@dataclass(frozen=True)
class Call:
    """One timed command or step call of an iteration."""

    label: str
    run: object      # zero-argument callable returning the payload to check
    check: object    # payload -> list of problems, run after timing


class SchemeWorkload:
    """Set-up writes one scheme file; an iteration runs ``verify`` then ``pipeline``.

    ``build_argv`` are the ``build-scheme`` arguments of a builtin scheme;
    without them set-up writes the mirror scheme with ``save_scheme``.
    """

    seed_dependent = False

    def __init__(self, name: str, c: str, build_argv=None):
        self.name = name
        self.c = c
        self._build_argv = build_argv

    def setup(self, cp, workdir: str, seed: int) -> str:
        path = os.path.join(workdir, f"{self.name}.scm")
        if self._build_argv is not None:
            code, _ = run_cli(cp, ["build-scheme", *self._build_argv, "--out", path])
            if code != 0:
                raise RuntimeError(f"build-scheme exited {code}")
        else:
            cp.save_scheme(mirror_scheme(cp), path)
        return path

    def calls(self, cp, path: str, expected: dict) -> list[Call]:
        argvs = {
            "verify": ["verify", "--scheme", path, "--format", "machine"],
            "pipeline": ["pipeline", "--scheme", path, "--c", self.c, "--format", "machine"],
        }
        return [
            Call(label, lambda a=argv: run_cli(cp, a),
                 lambda payload, lb=label: outcomes.command_problems(lb, *payload, expected))
            for label, argv in argvs.items()
        ]


def mirror_scheme(cp):
    """The test suite's mirror scheme, as explicit tables: wrong on purpose.

    n = u = 16 over alphabet 2; the encoder is the identity and query i reads
    cell i-1 back as its answer.  Encodings are exactly uniform, so the
    prefix pipeline runs every stage through to the final chain.
    """
    encoder = cp.TableEncoder({x: x for x in product((0, 1), repeat=16)})
    decoder = cp.TableDecoder({(0,): 0, (1,): 1})
    return cp.Scheme(
        n=16, u=16, cell_alphabet=2, domain=cp.DOMAIN_ALL, kind=cp.KIND_SUM,
        probes=tuple((i,) for i in range(16)),
        encoder=encoder, decoders=(decoder,) * 16,
    )


STEPS_N = 1 << 16
# (largest probe-set size q, size of the shared hot-cell pool, gap g)
SEPARATOR_FAMILIES = ((2, 0, 2), (3, 0, 2), (2, 8, 2), (3, 16, 4))
BRACKET_UNIVERSES = (256, 1024, 4096)
BRACKET_C = 4
STRETCHER_RUNS = ((2000, 2), (2000, 4), (2000, 2), (2000, 4))
ENTROPY_SUM_ARGS = ((261, 1, 257, 261, 64), (1024, 256, 900, 932, 8))


def entropy_sum_key(args) -> str:
    return ",".join(str(a) for a in args)


class StepsWorkload:
    """One round of the constructive steps through the public library at n = 2^16."""

    name = "steps65536"
    seed_dependent = True

    def setup(self, cp, workdir: str, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        n, cold = STEPS_N, 4 * STEPS_N
        separator = []
        for q, hot, g in SEPARATOR_FAMILIES:
            # hot families give every set one cell of the pool plus up to q-1 cold cells
            width = q - 1 if hot else q
            sizes = rng.integers(1, width + 1, n).tolist()
            cells = rng.integers(0, cold, (n, width)).tolist()
            family = [set(row[:k]) for row, k in zip(cells, sizes)]
            if hot:
                for s, h in zip(family, rng.integers(cold, cold + hot, n).tolist()):
                    s.add(h)
            separator.append((family, g))
        brackets = [[{v} for v in rng.integers(0, u, n).tolist()] for u in BRACKET_UNIVERSES]
        stretcher = [(sorted((rng.choice(n, w, replace=False) + 1).tolist()), c)
                     for w, c in STRETCHER_RUNS]
        return {"separator": separator, "brackets": brackets, "stretcher": stretcher}

    def calls(self, cp, inputs: dict, expected: dict) -> list[Call]:
        n = STEPS_N
        out = []
        for family, g in inputs["separator"]:
            out.append(Call(
                "find_separator", lambda f=family, g=g: cp.find_separator(f, g),
                lambda res, f=family, g=g: outcomes.separator_problems(f, g, res)))
        for family in inputs["brackets"]:
            out.append(Call(
                "find_separator_brackets",
                lambda f=family: cp.find_separator_brackets(f, BRACKET_C),
                lambda res, f=family: outcomes.bracket_separator_problems(f, BRACKET_C, res)))
        for indices, c in inputs["stretcher"]:
            out.append(Call(
                "find_stretcher", lambda v=indices, c=c: cp.find_stretcher(v, n, c),
                lambda res, v=indices, c=c: outcomes.stretcher_problems(v, n, c, res)))
        for args in ENTROPY_SUM_ARGS:
            want = expected["entropy_sum"][entropy_sum_key(args)]
            out.append(Call(
                "entropy_sum_analysis_uniform",
                lambda a=args: cp.entropy_sum_analysis_uniform(*a),
                lambda res, a=args, w=want: outcomes.entropy_sum_problems(a, w, res)))
        return out


WORKLOADS = {
    "rank16": SchemeWorkload(
        "rank16", "2",
        ["--name", "two_level_rank", "--n", "16", "--param", "block=4",
         "--param", "superblock=8", "--alphabet", "17"]),
    "chain16": SchemeWorkload("chain16", "2"),
    "brackets20": SchemeWorkload("brackets20", "4", ["--name", "bracket_table", "--n", "20"]),
    "steps65536": StepsWorkload(),
}
