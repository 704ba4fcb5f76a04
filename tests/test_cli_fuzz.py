"""Random argv over every row of the command table: no call ends in a traceback.

Each draw picks a row of ``cli.COMMANDS`` and fills its declared arguments
with bounded values: ints in [-2, 20], fixed n = 8 scheme files, small
distribution and bit-set files, and number strings that include values past
the float range.  ``--bracket-c`` alone may also take a 1,500-digit int: the
schedule refuses it at once, where an ``--n`` that size would never finish.  Every call must return 0, 1 or 2, or exit 2 in argparse.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from cellprobe.cli import COMMANDS, OUTDIR_ENV, main
from cellprobe.schemeio import save_scheme
from cellprobe.schemes import (
    BUILTIN_BUILDERS,
    build_bracket_table,
    build_precomputed_sums,
    build_raw_identity,
)

SCHEMES = {
    "precomputed_sums8.scm": lambda: build_precomputed_sums(8),
    "bracket_table8.scm": lambda: build_bracket_table(8),
    "raw_identity8.scm": lambda: build_raw_identity(8, 4),
}

TEXT_FILES = {
    "uniform3.dist": "".join(f"{a},{b},{c} 1/8\n" for a in "01" for b in "01" for c in "01"),
    # sums to 1 + 10^-5000, whose exact form has more digits than str() may print
    "past_one.dist": "0,0 1e-5000\n1,1 9999e-4\n0,1 1e-4\n",
    "negative.dist": "0,0 -1e-9999\n1,1 1\n",
    "bits3.txt": "".join(f"{a}{b}{c}\n" for a in "01" for b in "01" for c in "01"),
}

NUMBERS = st.sampled_from(["0", "1", "2", "4", "-1", "7/3", "11/10", "1/0", "1e400",
                           "1e9999", "-1e-9999", "1e-400", "x"])
INT_LISTS = st.lists(st.integers(-2, 20), max_size=5).map(lambda xs: ",".join(map(str, xs)))

# values by flag; any other flag takes an int in [-2, 20] (type=int) or a number string
BY_FLAG = {
    "--scheme": st.sampled_from([*SCHEMES, "missing.scm", "uniform3.dist"]),
    "--dist": st.sampled_from([*TEXT_FILES, "missing.dist"]),
    "--x": st.sampled_from(["bits3.txt", "110100", "1100", "10", "0", ""]),
    # a c of 1,500 digits makes the schedule exponent (2c)^q too long for str()
    "--bracket-c": st.one_of(st.integers(-2, 20), st.integers(10 ** 1499, 10 ** 1500 - 1)).map(str),
    "--indices": INT_LISTS,
    "--sizes": INT_LISTS,
    "--target": INT_LISTS,
    "--given": INT_LISTS,
    "--out": st.sampled_from(["out.txt", "no/such/dir/out.txt"]),
    "--name": st.sampled_from([*sorted(BUILTIN_BUILDERS), "nope"]),
    "--param": st.sampled_from(["block=2", "superblock=4", "cell_alphabet=5", "bogus=1",
                                "block", "block=x"]),
}


def _values(flag, keywords):
    if flag in BY_FLAG:
        return BY_FLAG[flag]
    return st.integers(-2, 20).map(str) if keywords.get("type") is int else NUMBERS


@st.composite
def argvs(draw):
    row = draw(st.sampled_from(COMMANDS))
    argv = [row.name, "--format=" + draw(st.sampled_from(["text", "machine"]))]
    for flag, keywords in row.arguments:
        if not flag.startswith("-"):
            argv.append(draw(st.sampled_from(keywords["choices"])))
        elif keywords.get("action") == "store_true":
            if draw(st.booleans()):
                argv.append(flag)
        elif keywords.get("required") or draw(st.booleans()):
            # --flag=value, so a value such as -1e-9999 is not read as a flag
            argv.append(f"{flag}={draw(_values(flag, keywords))}")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, build in SCHEMES.items():
        save_scheme(build(), str(path / name))
    for name, text in TEXT_FILES.items():
        (path / name).write_text(text, encoding="ascii")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        mp.setenv(OUTDIR_ENV, str(path))
        yield path


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["pipeline", "--scheme=bracket_table8.scm", "--c=1000"])
@example(["goodset", "cells", "--dist=uniform3.dist", "--q=1", "--eta=1e400", "--alphabet=2"])
@example(["goodset", "blocks", "--x=bits3.txt", "--sizes=1,1,1", "--eps=1e400"])
@example(["entropy", "--dist=past_one.dist"])
@example(["entropy", "--dist=negative.dist"])
@example(["stretcher", "--indices=", "--n=2", "--c=-1e-9999"])
@example(["separator", "--scheme=bracket_table8.scm", "--gap=-1e-9999"])
@example(["separator", "--scheme=precomputed_sums8.scm", "--gap=1e9999"])
@example(["entropy-sum", "--uniform=4", "--p=1", "--i=2", "--j=3", "--c=-1e-9999"])
@example(["separator", "--scheme=raw_identity8.scm", "--bracket-c=" + "9" * 1500])
@example(["separator", "--scheme=precomputed_sums8.scm", "--bracket-c=1" + "0" * 1499])
def test_no_command_ends_in_a_traceback(workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refusing the argv
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
