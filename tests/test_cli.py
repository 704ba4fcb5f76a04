"""End-to-end command-line behaviour: output shape and exit codes."""

import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cellprobe

from cellprobe.cli import OUTDIR_ENV, main
from cellprobe.core import DOMAIN_ALL, KIND_SUM, Scheme, TableDecoder, TableEncoder
from cellprobe.schemeio import load_scheme, save_scheme
from cellprobe.schemes import build_bracket_table, build_precomputed_sums


@pytest.fixture
def good_scheme(tmp_path):
    path = tmp_path / "precomputed_n8.scm"
    save_scheme(build_precomputed_sums(8, 9), str(path))
    return str(path)


@pytest.fixture
def bad_scheme(tmp_path):
    # one cell holds the input verbatim; the second decoder is off at x=00
    enc = TableEncoder({(0, 0): (0,), (0, 1): (1,), (1, 0): (2,), (1, 1): (3,)})
    dec1 = TableDecoder({(0,): 0, (1,): 0, (2,): 1, (3,): 1})
    dec2 = TableDecoder({(0,): 1, (1,): 1, (2,): 1, (3,): 2})
    scheme = Scheme(n=2, u=1, cell_alphabet=4, domain=DOMAIN_ALL, kind=KIND_SUM,
                    probes=((0,), (0,)), encoder=enc, decoders=(dec1, dec2))
    path = tmp_path / "bad.scm"
    save_scheme(scheme, str(path))
    return str(path)


def test_verify_pass(good_scheme, capsys):
    assert main(["verify", "--scheme", good_scheme]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    assert "inputs_checked: 256" in out


def test_verify_reports_first_counterexample(bad_scheme, capsys):
    assert main(["verify", "--scheme", bad_scheme]) == 1
    out = capsys.readouterr().out
    assert "status: fail" in out
    assert "counterexample_x: 00" in out
    assert "counterexample_i: 2" in out
    assert "counterexample_got: 1" in out
    assert "counterexample_expected: 0" in out


def test_verify_machine_format(good_scheme, capsys):
    assert main(["verify", "--scheme", good_scheme, "--format", "machine"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "status=pass" in lines
    assert all("=" in line for line in lines)


def test_redundancy_output(good_scheme, capsys):
    assert main(["redundancy", "--scheme", good_scheme]) == 0
    out = capsys.readouterr().out
    assert "domain_size: 256" in out


def test_brackets_count_prints_bare_number(capsys):
    assert main(["brackets", "count", "--n", "8"]) == 0
    assert capsys.readouterr().out == "14\n"
    assert main(["brackets", "count", "--n", "8", "--format", "machine"]) == 0
    assert capsys.readouterr().out == "count=14\n"


def test_brackets_match_and_walk(capsys):
    assert main(["brackets", "match", "--x", "110100", "--i", "1"]) == 0
    assert "match: 6" in capsys.readouterr().out
    assert main(["brackets", "walk", "--d", "4", "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert "open_prob=3/16" in out
    assert "close_prob=3/16" in out


def test_brackets_list(capsys):
    assert main(["brackets", "list", "--n", "4"]) == 0
    assert capsys.readouterr().out == "1010\n1100\n"


def test_separator_prefix_mode(good_scheme, capsys):
    assert main(["separator", "--scheme", good_scheme, "--gap", "4"]) == 0
    out = capsys.readouterr().out
    assert "mode: prefix" in out
    assert "check.w_floor: yes" in out
    assert "check.b_small: yes" in out


def test_separator_refuses_a_gap_beside_a_bracket_c(good_scheme, capsys):
    code = main(["separator", "--scheme", good_scheme, "--gap", "4", "--bracket-c", "4"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: separator takes --gap or --bracket-c, not both\n"


def test_separator_refuses_relax_without_a_bracket_c(good_scheme, capsys):
    # --relax only loosens the bracket schedule's preconditions; beside --gap it did nothing
    assert main(["separator", "--scheme", good_scheme, "--gap", "4", "--relax"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: separator --relax applies to --bracket-c only\n"


def test_stretcher_ok_and_stuck(capsys):
    ok = main(["stretcher", "--indices", ",".join(str(k) for k in range(1, 21)),
               "--n", "256", "--c", "2"])
    assert ok == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert "v_prime: (2, 3, 5, 6)" in out

    stuck = main(["stretcher", "--indices", "1,2,4,8", "--n", "16", "--c", "11/10"])
    assert stuck == 1
    out = capsys.readouterr().out
    assert "status: stuck" in out
    assert "window: (0, 1, 2, 4, 8)" in out


def test_entropy_sum_without_a_threshold_prints_dashes(tmp_path, capsys):
    # the good prefix 0 carries 1/8 of the mass, under the 1/4 a threshold needs
    dist = tmp_path / "light.dist"
    dist.write_text("0,0,0 1/32\n0,0,1 1/32\n0,1,0 1/32\n0,1,1 1/32\n1,0,0 7/8\n",
                    encoding="ascii")
    argv = ["entropy-sum", "--dist", str(dist), "--p", "1", "--i", "2", "--j", "3", "--c", "4",
            "--format", "machine"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "pr_A=1/8" in lines
    for name in ("t", "s", "s_prime", "P_upper", "P_lower", "P_joint", "block_bound"):
        assert f"{name}=-" in lines
    for name in ("holds_upper", "holds_lower", "holds_joint", "holds"):
        assert f"{name}=no" in lines


def test_a_huge_bracket_c_is_refused_in_short_form(tmp_path, capsys):
    # (2c)^3 has about 4,500 digits, more than str() prints
    path = str(tmp_path / "rank8.scm")
    assert main(["build-scheme", "--name", "two_level_rank", "--n", "8", "--alphabet", "9",
                 "--param", "block=2", "--param", "superblock=4", "--out", path]) == 0
    capsys.readouterr()
    assert main(["separator", "--scheme", path, "--bracket-c", "9" * 1500, "--relax"]) == 2
    err = capsys.readouterr().err
    assert err == "error: schedule exponent d^q = 8.00E+4500 exceeds 10000\n"


def test_entropy_command(tmp_path, capsys):
    dist = tmp_path / "d.dist"
    dist.write_text(
        "# two uniform bits\n0,0 1/4\n0,1 1/4\n1,0 1/4\n1,1 1/4\n", encoding="utf-8")
    assert main(["entropy", "--dist", str(dist)]) == 0
    assert "entropy: 2" in capsys.readouterr().out
    assert main(["entropy", "--dist", str(dist), "--target", "0", "--given", "1"]) == 0
    assert "conditional_entropy: 1" in capsys.readouterr().out


def test_entropy_given_with_long_decimals(tmp_path, capsys):
    # probabilities over 10^21: the common denominator is past int64
    dist = tmp_path / "d.dist"
    dist.write_text("0,0 0.333333333333333333333\n1,1 0.666666666666666666667\n",
                    encoding="utf-8")
    assert main(["entropy", "--dist", str(dist), "--target", "1", "--given", "0"]) == 0
    assert "conditional_entropy: 0" in capsys.readouterr().out


def test_goodset_blocks_mode(tmp_path, capsys):
    xfile = tmp_path / "x.bits"
    rows = [f"0{a}{b}{c}" for a in "01" for b in "01" for c in "01"]
    xfile.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main(["goodset", "blocks", "--x", str(xfile),
                 "--sizes", "1,1,1,1", "--eps", "1/2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "good: (2, 3, 4)" in out
    assert "size_bound_ok: yes" in out


def test_goodset_missing_flags_is_usage_error(capsys):
    assert main(["goodset", "cells"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--dist" in err


def test_entropy_sum_uniform(capsys):
    code = main(["entropy-sum", "--uniform", "261", "--p", "1",
                 "--i", "257", "--j", "261", "--c", "64", "--format", "machine"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "t=1" in lines
    assert "s=139" in lines
    assert "P_lower=1/2" in lines
    assert "holds=yes" in lines


def test_exact_answers_past_the_int_print_limit_are_refused_up_front(capsys, monkeypatch):
    argv = ["entropy-sum", "--uniform", "20000", "--p", "5000", "--i", "15000",
            "--j", "20000", "--c", "8", "--format", "machine"]
    if not hasattr(sys, "get_int_max_str_digits"):
        # Python before 3.10.7 prints an int of any length
        assert main(argv) == 1
        return
    monkeypatch.setattr(cellprobe.cli, "entropy_sum_analysis_uniform", None)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert main(argv) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 2^20000 has 6021 digits, past the 4300-digit limit on "
                            "printing an int\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python before 3.10.7 prints an int of any length")
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_a_report_value_past_the_int_print_limit_is_refused(good_scheme, capsys, fmt):
    # g = 10^9999, and the 30000th Catalan number has about 18,000 digits
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        codes = [main(["separator", "--scheme", good_scheme, "--gap", "1e9999", "--format", fmt]),
                 main(["brackets", "count", "--n", "30000", "--format", fmt])]
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert codes == [2, 2]
    assert captured.out == ""
    assert captured.err.splitlines()[0] == "error: 1.00E+9999 has more digits than Python prints"
    assert captured.err.splitlines()[1].endswith(" has more digits than Python prints")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python before 3.10.7 prints an int of any length")
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_a_walk_past_the_int_print_limit_prints_its_exact_fraction(capsys, fmt):
    # 2^20000 has 6021 digits; the walk prints it in parts, each within the limit. It is
    # one binomial coefficient: the old nesting-level walk took about 30 s at d = 8000.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        start = time.monotonic()
        code = main(["brackets", "walk", "--d", "20000", "--format", fmt])
        elapsed = time.monotonic() - start
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert elapsed < 10.0
    lines = dict(line.split(": " if fmt == "text" else "=", 1)
                 for line in capsys.readouterr().out.splitlines())
    want = Fraction(math.comb(19999, 9999), 2 ** 20000)
    try:
        sys.set_int_max_str_digits(0)
        for key in ("open_prob", "close_prob"):
            assert Fraction(lines[key].split(" (~")[0]) == want
    finally:
        sys.set_int_max_str_digits(limit)
    assert lines["d"] == "20000"


def test_pipeline_writes_report_to_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    scheme_path = tmp_path / "bracket_n8.scm"
    save_scheme(build_bracket_table(8), str(scheme_path))
    code = main(["pipeline", "--scheme", str(scheme_path), "--c", "4",
                 "--out", "report.txt"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("written: ")
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "verdict:" in report


def test_pipeline_truncation_exits_nonzero(good_scheme, capsys):
    code = main(["pipeline", "--scheme", good_scheme, "--c", "2"])
    assert code == 1
    assert "truncated: stretcher" in capsys.readouterr().out


def test_build_scheme_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    code = main(["build-scheme", "--name", "two_level_rank", "--n", "8",
                 "--alphabet", "9", "--param", "block=2", "--param", "superblock=4"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"written: {tmp_path}/two_level_rank_n8.scm" in out
    rebuilt = load_scheme(str(tmp_path / "two_level_rank_n8.scm"))
    assert rebuilt.n == 8 and rebuilt.u == 10
    assert main(["verify", "--scheme", str(tmp_path / "two_level_rank_n8.scm")]) == 0
    capsys.readouterr()


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_parameter_errors_exit_two(good_scheme, capsys):
    assert main(["stretcher", "--indices", "4,2", "--n", "8", "--c", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["pipeline", "--scheme", good_scheme, "--c", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["verify", "--scheme", "/nonexistent/path.scm"]) == 2
    assert capsys.readouterr().err.startswith("error:")


_BUILTIN_FILE = """n: 4
u: 4
q: 1
cell_alphabet: 5
domain: all_bitstrings
kind: sum
encoder: builtin:precomputed_sums {params}
probes:
  0
  1
  2
  3
decoders: builtin
"""

_TABLE_FILE = """n: 1
u: 1
q: 1
cell_alphabet: 2
domain: all_bitstrings
kind: sum
encoder: table
  0 -> 0
  1 -> 1
probes:
  0
decoders: table
  query 1
    0 -> 0
    1 -> {answer}
"""


_ENCODER_FILE = """n: 2
u: 1
q: 1
cell_alphabet: {alphabet}
domain: all_bitstrings
kind: sum
encoder: table
{rows}probes:
  0
  0
decoders: table
  query 1
    0 -> 0
    1 -> 1
  query 2
    0 -> 0
    1 -> 1
"""


def _encoder_file(*edits, alphabet=2):
    """A table file whose encoder rows (file lines 8-11) take ``edits``: {row: text}."""
    rows = dict(enumerate(["00 -> 0", "01 -> 0", "10 -> 1", "11 -> 1"]))
    for edit in edits:
        rows.update(edit)
    body = "".join(f"  {rows[k]}\n" for k in sorted(rows) if rows[k] is not None)
    return _ENCODER_FILE.format(alphabet=alphabet, rows=body)


@pytest.mark.parametrize("text,names", [
    (_BUILTIN_FILE.format(params="cell_alphabet=5 n=4 bogus=1"), "bogus"),
    (_BUILTIN_FILE.format(params="cell_alphabet=x n=4"), "cell_alphabet"),
    (_TABLE_FILE.format(answer="one"), "query 1 answer"),
    # encoder-table defects: refused at read time, naming the line ...
    (_encoder_file({1: "0x -> 0"}), "line 9"),
    (_encoder_file({4: "011 -> 0"}), "line 12"),
    (_encoder_file({4: "00 -> 1"}), "line 12"),
    (_encoder_file({2: "10 -> 1 1"}), "line 10"),
    (_encoder_file({1: "01 -> x"}), "line 9"),
    (_encoder_file({3: "11 -> 99999999999999999999"}, alphabet=10 ** 20 + 1), "line 11"),
    # ... or when the domain is encoded, naming the input or its cells
    (_encoder_file({3: None}), "input (1, 1) not present"),
    (_encoder_file({3: "11 -> 2"}), "encoder output (2,) leaves the cell alphabet"),
], ids=["unknown-builtin-parameter", "non-integer-builtin-parameter", "non-integer-answer",
        "bad-bit-character", "input-longer-than-n", "duplicated-input", "ragged-values",
        "non-integer-value", "value-past-int64", "input-missing", "value-outside-alphabet"])
def test_bad_scheme_file_is_usage_error(text, names, tmp_path, capsys):
    path = tmp_path / "bad.scm"
    path.write_text(text, encoding="ascii")
    assert main(["verify", "--scheme", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text,args,names", [
    ("0,99999999999999999999 1\n", ["entropy", "--target", "0"], "past int64"),
    ("0,0 1/2\n1,1 1/2\n", ["entropy", "--target", "5"], "coordinate 5"),
    ("0,0 1/2\n1,1 1/2\n", ["entropy", "--target", "-1"], "coordinate -1"),
    ("0,0 1/2\n1,1 1/2\n", ["entropy", "--target", "0", "--given", "2"], "coordinate 2"),
    ("0,5 1/2\n1,1 1/2\n", ["goodset", "cells", "--q", "1", "--eta", "1/4", "--alphabet", "2"],
     "[0, 2)"),
    ("0,-1 1/2\n1,1 1/2\n", ["goodset", "cells", "--q", "1", "--eta", "1/4", "--alphabet", "2"],
     "[0, 2)"),
    ("0,99999999999999999999 1\n", ["entropy-sum", "--p", "0", "--i", "1", "--j", "2", "--c", "1"],
     "past int64"),
], ids=["outcome-past-int64", "target-past-arity", "negative-target", "given-past-arity",
        "cell-value-past-alphabet", "negative-cell-value", "entropy-sum-outcome-past-int64"])
def test_bad_distribution_file_is_usage_error(text, args, names, tmp_path, capsys):
    path = tmp_path / "bad.dist"
    path.write_text(text, encoding="ascii")
    assert main([*args, "--dist", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [["verify", "--scheme"], ["entropy", "--dist"]])
def test_file_that_is_not_text_is_usage_error(args, tmp_path, capsys):
    path = tmp_path / "binary"
    path.write_bytes(b"n: \xd0\xff\n0,0 1\n")
    assert main([*args, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_build_scheme_unknown_parameter_is_usage_error(tmp_path, capsys):
    code = main(["build-scheme", "--name", "precomputed_sums", "--n", "4",
                 "--param", "bogus=1", "--out", str(tmp_path / "x.scm")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("extra, key", [
    (["--param", "n=8"], "n"),
    (["--alphabet", "9", "--param", "cell_alphabet=6"], "cell_alphabet"),
    (["--param", "cell_alphabet=6", "--param", "cell_alphabet=7"], "cell_alphabet"),
])
def test_build_scheme_refuses_a_param_that_repeats_a_key(extra, key, tmp_path, capsys):
    out = tmp_path / "x.scm"
    code = main(["build-scheme", "--name", "precomputed_sums", "--n", "4", *extra,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --param {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("module", ["cellprobe", "cellprobe.cli"])
def test_module_entry_points_run_the_cli(module, tmp_path, src_env):
    done = subprocess.run(
        [sys.executable, "-m", module, "verify", "--scheme", str(tmp_path / "missing.scm")],
        capture_output=True, text=True, env=src_env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")


def test_pipeline_rejects_out_of_range_c_without_traceback(good_scheme, tmp_path, src_env):
    # a Match c must be an integer; a Sum c past n must not overflow or hang
    brackets = tmp_path / "brackets8.scm"
    save_scheme(build_bracket_table(8), str(brackets))
    for scheme, c in ((brackets, "9/2"), (brackets, "4.5"),
                      (good_scheme, "1e400"), (good_scheme, "1e20")):
        done = subprocess.run(
            [sys.executable, "-m", "cellprobe", "pipeline", "--scheme", str(scheme), "--c", c],
            capture_output=True, text=True, env=src_env, timeout=60)
        assert done.returncode == 2, (c, done.stderr)
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("c", ["1e400", "1e4000", "1e9999"])
def test_pipeline_echoes_a_huge_c_in_short_form(good_scheme, tmp_path, c, src_env):
    # a Sum c past n and a Match c past the schedule's exponent limit are refused
    # without printing the expanded Fraction (10^9999 has more digits than str allows)
    brackets = tmp_path / "brackets20.scm"
    save_scheme(build_bracket_table(20), str(brackets))
    for scheme in (good_scheme, str(brackets)):
        done = subprocess.run(
            [sys.executable, "-m", "cellprobe", "pipeline", "--scheme", scheme, "--c", c],
            capture_output=True, text=True, env=src_env, timeout=60)
        assert done.returncode == 2, (scheme, done.stderr)
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
        assert len(done.stderr.encode()) < 200, done.stderr
        assert f"1.00E+{c[2:]}" in done.stderr


def test_domain_past_the_encoding_budget_is_usage_error(tmp_path, capsys, src_env):
    path = str(tmp_path / "raw1100.scm")
    assert main(["build-scheme", "--name", "raw_identity", "--n", "1100",
                 "--alphabet", "2", "--out", path]) == 0
    # a prefix of the domain still verifies
    assert main(["verify", "--scheme", path, "--max-inputs", "5", "--format", "machine"]) == 0
    assert "status=pass" in capsys.readouterr().out
    for argv in (["pipeline", "--scheme", path, "--c", "3"], ["verify", "--scheme", path]):
        done = subprocess.run([sys.executable, "-m", "cellprobe", *argv],
                              capture_output=True, text=True, env=src_env, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:")
        assert "--max-inputs" in done.stderr
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_verify_max_inputs_must_be_positive(good_scheme, limit, capsys):
    assert main(["verify", "--scheme", good_scheme, "--max-inputs", limit]) == 2
    captured = capsys.readouterr()
    assert "status" not in captured.out
    assert captured.err.startswith("error:") and "max_inputs" in captured.err


def test_a_huge_decimal_exponent_is_refused_without_expanding_it(tmp_path, src_env):
    # Fraction("1e99999999") builds a 10^8-digit integer and does not come back
    dist = tmp_path / "huge.dist"
    dist.write_text("0,1 1e99999999\n1,0 1/2\n", encoding="utf-8")
    for argv in (["entropy-sum", "--uniform", "4", "--p", "1", "--i", "2", "--j", "3",
                  "--c", "1e99999999"],
                 ["entropy", "--dist", str(dist)]):
        done = subprocess.run([sys.executable, "-m", "cellprobe", *argv],
                              capture_output=True, text=True, env=src_env, timeout=30)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:") and "exponent" in done.stderr
        assert "Traceback" not in done.stderr


def test_a_c_past_the_float_range_is_refused_without_traceback(src_env):
    for argv in (["stretcher", "--indices", "1,2,3", "--n", "8", "--c", "1e400"],
                 ["entropy-sum", "--uniform", "4", "--p", "1", "--i", "2", "--j", "3",
                  "--c", "1e400"]):
        done = subprocess.run([sys.executable, "-m", "cellprobe", *argv],
                              capture_output=True, text=True, env=src_env, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:") and "float range" in done.stderr
        assert "Traceback" not in done.stderr


def test_small_decimal_exponents_still_parse(capsys):
    argv = ["entropy-sum", "--uniform", "4", "--p", "1", "--i", "2", "--j", "3", "--format",
            "machine", "--c"]
    for c in ("1e-3", "2.5e2"):
        assert main(argv + [c]) in (0, 1)
        assert "holds=" in capsys.readouterr().out
    assert cellprobe.cli._num("1e-3") == Fraction(1, 1000)
    assert cellprobe.cli._num("2.5e2") == 250
