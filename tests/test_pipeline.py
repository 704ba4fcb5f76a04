"""Stage-by-stage adversary pipelines and the closing contradiction chain."""

import glob
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cellprobe import (
    DOMAIN_ALL,
    DOMAIN_BAL,
    KIND_SUM,
    Distribution,
    ParameterError,
    Scheme,
    restrict_scheme,
    run_pipeline,
    tv_from_uniform,
)
import cellprobe.infotheory as infotheory
from cellprobe.entropy_sum import stretch_term
from cellprobe.pipeline import _final_chain, _good_cells
from cellprobe.schemeio import save_scheme
from cellprobe.schemes import (
    build_bracket_table,
    build_precomputed_sums,
    build_raw_identity,
    build_two_level_rank,
)


def _mirror_scheme() -> Scheme:
    """Parrots each input bit back as the query answer; wrong on purpose.

    Encodings are exactly uniform, so every stage has full-strength material
    to work with and the pipeline reaches the final chain.
    """
    def dec(vals):
        return vals[:, 0]

    return Scheme(
        n=16, u=16, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
        probes=tuple((i,) for i in range(16)),
        encoder=lambda bits: bits,
        decoders=tuple(dec for _ in range(16)),
    )


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden_pipelines():
    """Every machine-format pipeline golden, as a key -> value dict."""
    for path in sorted(glob.glob(os.path.join(GOLDEN, "*.pipeline.txt"))):
        with open(path, encoding="ascii") as fh:
            yield dict(line.rstrip("\n").split("=", 1) for line in fh)


def test_golden_chains_read_the_joint_check_from_lines_0_and_5():
    kinds = []
    for report in _golden_pipelines():
        if "chain.5.value" not in report:
            continue
        kinds.append(report["pipeline"])
        joint, bound = Fraction(report["chain.0.value"]), Fraction(report["chain.5.value"])
        assert report["check.joint_under_product_bound"] == ("ok" if joint < bound else "fail")
        if report["pipeline"] == "prefix":
            # line 5 is (P_upper - 1/c)(P_lower - 1/c) - 1/c on the entropy-sum stage's fields
            eta = 1 / Fraction(report["c"])
            upper = Fraction(report["stage.entropy-sum.P_upper"])
            lower = Fraction(report["stage.entropy-sum.P_lower"])
            assert bound == (upper - eta) * (lower - eta) - eta
    assert sorted(kinds) == ["brackets"] * 2 + ["prefix"] * 3


def test_close_pairs_keeps_every_candidate_in_the_match_goldens():
    """d = 16 lg^a n >= 32 exceeds n - 1 >= j - i at every n cell-fixing enumerates
    (n <= 28), so close-pairs cannot drop a pair."""
    match = [r for r in _golden_pipelines() if r["pipeline"] == "brackets"]
    assert len(match) == 3
    for report in match:
        assert float(report["stage.good-cells.d"]) >= 32 > int(report["n"]) - 1
        assert report["stage.close-pairs.kept_pairs"] == report["stage.close-pairs.candidate_pairs"]


def test_two_level_pipeline_truncates_at_stretcher():
    rep = run_pipeline(build_two_level_rank(16, 4, 8, 17), 2)
    assert rep.kind == "prefix"
    assert rep.truncated_at == "stretcher"
    assert not rep.completed
    assert rep.verdict == "truncated at stretcher"
    sep = rep.stage("separator")
    assert sep.field("v") == (1, 9)
    assert sep.field("w") == 2
    assert sep.field("b_cells") == ()
    assert sep.ok
    good = rep.stage("good-cells")
    assert good.field("cells_kept") == (1, 2, 3, 4, 10)
    assert good.field("v2") == ()
    stretch = rep.stage("stretcher")
    assert stretch.field("v_prime") == ()
    assert rep.chain == ()


def test_two_level_pipeline_is_deterministic():
    first = run_pipeline(build_two_level_rank(16, 4, 8, 17), 2)
    second = run_pipeline(build_two_level_rank(16, 4, 8, 17), 2)
    assert first.render_text() == second.render_text()
    assert first.render_machine() == second.render_machine()


def test_stuck_stretcher_is_reported_from_the_sweep():
    # n=4, c=11/10: V2 = 1..4, t = floor(2.2) = 2, guarantee = 2*floor(4/2.2) = 2.
    # The first window (0,1,2) fails 1-0 >= 1.1*(2-1), so nothing is paired.
    rep = run_pipeline(build_precomputed_sums(4), Fraction(11, 10))
    assert rep.stage("good-cells").field("v2") == (1, 2, 3, 4)
    st = rep.stage("stretcher")
    assert [st.field(k) for k in ("t", "w", "w_prime", "guarantee")] == [2, 4, 0, 2]
    assert st.field("stuck_at") == 0
    assert st.field("stuck_window") == (0, 1, 2)
    assert dict(st.checks) == {"pair_rule": True, "w_prime_floor": False,
                               "sweep_completed": False}
    assert rep.truncated_at == "stretcher"
    # n=6: V2 = 2..6, t = floor(1.1*lg 6) = 2, guarantee = 2*floor(5/2.84) = 2.
    # (0,2,3) pairs since 2 >= 1.1*1; the next window (3,4,5) has 1 < 1.1*1.
    rep = run_pipeline(build_precomputed_sums(6), Fraction(11, 10))
    assert rep.stage("good-cells").field("v2") == (2, 3, 4, 5, 6)
    st = rep.stage("stretcher")
    assert [st.field(k) for k in ("t", "w", "w_prime", "guarantee")] == [2, 5, 2, 2]
    assert st.field("v_prime") == (2, 3)
    assert st.field("stuck_at") == 2
    assert st.field("stuck_window") == (3, 4, 5)
    assert dict(st.checks) == {"pair_rule": True, "w_prime_floor": True,
                               "sweep_completed": False}
    # the pairs found before the stuck window still feed the later stages
    assert rep.truncated_at is None
    assert (rep.stage("entropy-blocks").field("i"),
            rep.stage("entropy-blocks").field("j")) == (2, 3)


def test_light_good_prefixes_truncate_at_entropy_sum():
    # the good prefixes carry no mass, so no threshold exists and nothing is measured at it
    rep = run_pipeline(build_raw_identity(4, 16), Fraction(3, 2))
    assert [s.name for s in rep.stages] == [
        "separator", "cell-fixing", "good-cells", "stretcher", "entropy-blocks", "entropy-sum"]
    st = rep.stage("entropy-sum")
    assert st.field("pr_A") == 0
    for name in ("t", "s", "s_prime", "P_upper", "P_lower", "P_lower_leq", "P_joint",
                 "block_bound"):
        assert st.field(name) is None
    checks = dict(st.checks)
    assert not (checks["upper_tail"] or checks["lower_tail"] or checks["joint_tail"])
    assert rep.chain == () and rep.chain_checks == ()
    assert rep.truncated_at == "entropy-sum"
    assert rep.verdict == "truncated at entropy-sum"


def test_uniform_space_cap_skips_chain_lines_2_to_4(monkeypatch):
    # one scheme for both runs: its domain, encoded once, is cached before the cap
    scheme = build_precomputed_sums(8)
    uncapped = run_pipeline(scheme, Fraction(11, 10))
    # a grid of any width past the one budget in core: one byte
    monkeypatch.setattr("cellprobe.core._ENCODE_BUDGET_BYTES", 1)
    capped = run_pipeline(scheme, Fraction(11, 10))
    before = uncapped.render_machine().splitlines()
    after = capped.render_machine().splitlines()
    assert len(before) == len(after)
    skipped = ["chain.2.value=-", "chain.2.status=skip", "chain.3.value=-",
               "chain.3.status=skip", "chain.4.status=skip"]
    assert "check.relations=fail" in after
    # every other line, check.relations=fail among them, matches the uncapped report
    assert [a for b, a in zip(before, after) if b != a] == skipped


def test_chain_line_3_reads_the_joint_grids_marginals(monkeypatch):
    """precomputed_sums(8) at c = 11/10 closes on two one-cell queries over alphabet 9: the
    joint grid is 81 x 2 uint8 (162 bytes), each query's own 9 x 1 (9 bytes, 72 if priced
    as int64).  Under the budget, line 3's factors come from the joint grid's decodes; past
    it, from their own."""
    from cellprobe.core import RestrictedScheme

    calls = []
    decode = RestrictedScheme.decode_reduced
    monkeypatch.setattr(RestrictedScheme, "decode_reduced",
                        lambda self, *args: calls.append(args[0]) or decode(self, *args))
    reports = []
    scheme = build_precomputed_sums(8)
    for budget in (None, 9):
        if budget:
            monkeypatch.setattr("cellprobe.core._ENCODE_BUDGET_BYTES", budget)
        calls.clear()
        reports.append(run_pipeline(scheme, Fraction(11, 10)).render_machine())
        # the two queries once over Y and once over a uniform grid each
        assert len(calls) == 4
    before, after = (report.splitlines() for report in reports)
    assert "chain.3.value=-700/891" in before
    skipped = ["chain.2.value=-", "chain.2.status=skip"]
    assert [a for b, a in zip(before, after) if b != a] == skipped


@pytest.mark.parametrize("scheme, c, reader", [
    (build_precomputed_sums(8), Fraction(11, 10), "entropy-sum"),
    (build_bracket_table(12), 4, "entropy-blocks")])
def test_a_pipeline_finds_the_prefix_runs_of_x_once(monkeypatch, scheme, c, reader):
    """Every stage that reads X's prefixes, entropy-blocks and then entropy-sum (Sum) or
    the first block's TV (Match, whose chosen block here is the first), reads one set of
    runs, found once."""
    found = []
    first_differences = infotheory._first_differences
    monkeypatch.setattr(infotheory, "_first_differences",
                        lambda rows: found.append(len(rows)) or first_differences(rows))
    rep = run_pipeline(scheme, c)
    assert rep.completed and reader in [s.name for s in rep.stages]
    assert rep.stage("entropy-blocks").field("chosen_block") == 1
    assert found == [rep.stage("cell-fixing").field("survivors")]


def test_tiny_scheme_truncates_with_stage_named():
    rep = run_pipeline(build_precomputed_sums(2, 3), 2)
    assert rep.truncated_at == "stretcher"


def test_mirror_pipeline_reaches_the_final_chain():
    rep = run_pipeline(_mirror_scheme(), 2)
    assert rep.completed and rep.truncated_at is None
    assert [s.name for s in rep.stages] == [
        "separator", "cell-fixing", "good-cells", "stretcher",
        "entropy-blocks", "entropy-sum"]

    assert rep.stage("separator").field("w") == 16
    assert rep.stage("cell-fixing").field("survivors") == 65536
    assert rep.stage("good-cells").field("cells_kept") == tuple(range(1, 17))
    assert rep.stage("good-cells").field("max_pair_tv") == 0
    assert rep.stage("stretcher").field("v_prime") == (2, 3, 5, 6, 8, 9)

    blocks = rep.stage("entropy-blocks")
    assert blocks.field("sizes") == (3, 3, 10)
    assert blocks.field("chosen_block") == 1
    assert (blocks.field("p"), blocks.field("i"), blocks.field("j")) == (0, 2, 3)

    es = rep.stage("entropy-sum")
    assert (es.field("ell"), es.field("d"), es.field("t")) == (2, 1, 0)
    assert es.field("s") == pytest.approx(1.5 + stretch_term(2, 1), abs=1e-12)
    assert es.field("s_prime") == Fraction(1)
    assert es.field("P_upper") == Fraction(1, 8)
    assert es.field("P_lower") == Fraction(1, 4)
    assert es.field("P_joint") == 0
    assert es.ok

    values = tuple(line.value for line in rep.chain)
    assert values == (
        Fraction(0), Fraction(0), Fraction(-1, 2), Fraction(-1, 2),
        Fraction(-1, 2), Fraction(-13, 32), Fraction(-17, 50), Fraction(1, 200))
    assert tuple(line.ok for line in rep.chain) == (
        True, True, True, True, True, False, False, False)
    checks = dict(rep.chain_checks)
    assert checks["joint_bound"]
    assert checks["probes_disjoint"]
    assert not checks["relations"]
    assert not checks["contradiction"]
    assert rep.verdict == "no contradiction at this scale"


def test_bracket_pipeline_reaches_a_zero_left_side():
    rep = run_pipeline(build_bracket_table(12), 4)
    assert rep.kind == "brackets"
    assert rep.completed
    sep = rep.stage("separator")
    assert (sep.field("a"), sep.field("b")) == (8, 32)
    assert sep.field("b_cells") == ()
    assert sep.field("size_floor_ok") is False
    blocks = rep.stage("entropy-blocks")
    assert blocks.field("fallback") == "closest-in-v"
    assert (blocks.field("i"), blocks.field("j")) == (1, 2)
    first = rep.chain[0]
    assert isinstance(first.value, Fraction) and first.value == 0
    assert first.ok
    assert rep.chain[-1].label == "0"
    checks = dict(rep.chain_checks)
    assert checks["left_side_zero"]
    assert checks["probes_disjoint"]
    assert not checks["contradiction"]


def test_bracket_pipeline_is_deterministic():
    first = run_pipeline(build_bracket_table(12), 4)
    second = run_pipeline(build_bracket_table(12), 4)
    assert first.render_text() == second.render_text()


def test_bracket_pipeline_smallest_instance():
    rep = run_pipeline(build_bracket_table(8), 4)
    assert rep.kind == "brackets"
    assert rep.completed or rep.truncated_at is not None


def test_pipeline_input_validation():
    # Scheme allows Sum queries over balanced strings; the prefix argument does not
    balanced_sums = Scheme(
        n=4, u=4, cell_alphabet=2, domain=DOMAIN_BAL, kind=KIND_SUM,
        probes=tuple(tuple(range(i)) for i in range(1, 5)),
        encoder=lambda bits: bits, decoders=tuple(_sum_of_values for _ in range(4)))
    with pytest.raises(ParameterError, match="Sum scheme over all bitstrings"):
        run_pipeline(balanced_sums, 2)
    with pytest.raises(ParameterError):
        run_pipeline(build_precomputed_sums(8, 9), 1)
    with pytest.raises(ParameterError):
        run_pipeline(build_bracket_table(8), 3)
    # c is decided exactly: a Match c must be an integer, a Sum c must lie in (1, n]
    for bad in (Fraction(9, 2), 4.5):
        with pytest.raises(ParameterError):
            run_pipeline(build_bracket_table(8), bad)
    for bad in (Fraction(10) ** 400, 10 ** 20, Fraction(17, 2), 9):
        with pytest.raises(ParameterError):
            run_pipeline(build_precomputed_sums(8, 9), bad)
    assert run_pipeline(build_precomputed_sums(8, 9), 8).c == 8
    # (lg n)^c past the float range, with c <= n
    with pytest.raises(ParameterError):
        run_pipeline(build_raw_identity(1100, 2), Fraction(1001, 2))


def _sum_of_values(values):
    return values.sum(axis=1)


def _zeros(values):
    return np.zeros(len(values), dtype=np.int64)


def _first(values):
    return values[:, 0]


@pytest.mark.parametrize("u, alphabet, probes, counted, own", [
    # every 2-subset fails by the support bound (8^2 points, 8 inputs): good_cells
    # counts none and keeps cell 2 alone; pairs on no cell or on cell 2 alone remain
    (3, 8, ((), (), (2,)), 0, 3),
    # queries 1 and 2 share cell 0: their pair is no 2-subset, the other two are
    (2, 2, ((0,), (0,), (1,)), 1, 1),
])
def test_pair_test_counts_the_pairs_good_cells_did_not(u, alphabet, probes, counted, own,
                                                        columns_tv_calls):
    def encoder(bits):
        # two input bits and, on a third cell, the number of ones
        return np.column_stack((bits[:, 0], bits[:, 1], bits.sum(axis=1)))[:, :u]

    scheme = Scheme(n=3, u=u, cell_alphabet=alphabet, domain=DOMAIN_ALL, kind=KIND_SUM,
                    probes=probes, encoder=encoder,
                    decoders=tuple(_first if p else _zeros for p in probes))
    rs = restrict_scheme(scheme, ())
    stages = []
    v2 = _good_cells(rs, scheme, Fraction(1, 2), (1, 2, 3), (), (), stages)
    assert v2 == (1, 2, 3)
    assert columns_tv_calls == {"subsets": counted, "pairs": own}
    y = Distribution.from_rows(rs.cells())
    expected = max(tv_from_uniform(y.marginal(probes[i] + probes[j]), alphabet ** len(probes[i] + probes[j]))
                   for i, j in ((0, 1), (0, 2), (1, 2)))
    assert stages[0].field("max_pair_tv") == expected > 0
    assert stages[0].field("pairs_tested") == 3


def test_subsets_past_the_limit_are_skipped_and_every_pair_counted(monkeypatch,
                                                                    columns_tv_calls):
    """Four uniform cells: the support bound cannot decide, and C(4, 2) = 6 subsets pass
    the limit, so good_cells raises SizeError; the stage keeps every cell and counts every
    pair of V2 itself."""
    monkeypatch.setattr("cellprobe.infotheory._SUBSET_LIMIT", 5)
    scheme = Scheme(n=4, u=4, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
                    probes=((0,), (1,), (2,), (3,)), encoder=lambda bits: bits,
                    decoders=(_first,) * 4)
    stages = []
    v2 = _good_cells(restrict_scheme(scheme, ()), scheme, Fraction(1, 2), (1, 2, 3, 4),
                     (), (), stages)
    assert v2 == (1, 2, 3, 4)
    stage = stages[0]
    assert stage.field("subsets_skipped") is True
    assert stage.field("cells_kept") == (1, 2, 3, 4)
    assert dict(stage.checks)["kept_count"]
    assert columns_tv_calls == {"subsets": 0, "pairs": 6}
    assert stage.field("pairs_tested") == 6


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_y_is_held_once():
    """On mirror16 Y is every 1 MiB of the cached one-byte cells: good-cells reads it in
    place, in indicator blocks of 1 MiB, and the final chain gathers only the two queries'
    probed columns. Measured peaks: 3.0 MiB in good-cells (4.0 MiB with a transposed copy
    of Y, 10.6 MiB when Y was int64) and 0.94 MiB in the chain; each bound adds 1 MiB of
    margin for other numpy versions, which the good-cells bound kept from 4.0 MiB."""
    scheme = _mirror_scheme()
    scheme.encoded()
    rs = restrict_scheme(scheme, ())
    assert rs.cells().nbytes == 2 ** 20
    stages = []
    peak = _traced_peak(lambda: _good_cells(rs, scheme, Fraction(1, 2), tuple(range(1, 17)),
                                            (), (), stages))
    assert stages[0].field("v2") == tuple(range(1, 17))
    assert peak < 5 * 2 ** 20
    events = (("a", 1, lambda v: v == 1), ("b", 3, lambda v: v == 1))
    x_probs = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
    tail = (("line 6", Fraction(0), "why"), ("line 7", Fraction(0), "why"))
    chain = []
    peak = _traced_peak(lambda: chain.extend(_final_chain(
        rs, 2, Fraction(1, 2), "eta", "Sum", events, x_probs, ("check", "why", True), tail)[0]))
    # Y's events are the decoders' own: both queries read a uniform bit
    assert [line.value for line in chain[1:2]] == [Fraction(1, 4)]
    assert peak < 2 * 2 ** 20


def test_chain_line_3_fails_when_the_two_queries_share_a_cell():
    """Both queries read cell 0, so Pr_U of the joint event does not factor: line 3 and
    the disjointness check fail together, and with them the relations and the verdict,
    while every other line holds."""
    scheme = Scheme(n=2, u=1, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
                    probes=((0,), (0,)), encoder=lambda bits: bits[:, :1],
                    decoders=(_first, _first))
    rs = restrict_scheme(scheme, ())
    events = (("a", 1, lambda v: v == 1), ("b", 2, lambda v: v == 1))
    half = Fraction(1, 2)
    tail = (("line 6", Fraction(-1), "why"), ("line 7", Fraction(-2), "why"))
    chain, checks = _final_chain(rs, 2, Fraction(1, 10), "eta", "x", events,
                                 (half, half, half), ("check", "why", True), tail)
    assert [line.ok for line in chain] == [True, True, True, False, True, True, True, True]
    # line 2 counts both events on one uniform cell: Pr_U[both] = 1/2, not 1/2 * 1/2
    assert chain[2].value == Fraction(1, 2) - Fraction(1, 10) == Fraction(2, 5)
    checks = dict(checks)
    assert not checks["probes_disjoint"]
    assert not checks["relations"]
    assert not checks["contradiction"]


def test_the_pipeline_at_n_20_peaks_under_160_mb(tmp_path, src_env):
    """The encoded domain of precomputed_sums(20) holds one-byte cells over alphabet 21:
    21 MB of cells where int64 took 168 MB. The run peaked at 584 MB with int64 cells,
    161-165 MB with one-byte cells, 141 MB once X and Y were the cached matrices
    themselves, and 119.5 MB once Y's rows were proven distinct without grouping them,
    on a 2-core Xeon under Python 3.11 and numpy 2.4. The bound is that peak plus 40 MB,
    rounded down, so one more int64 copy of the cells or of the bits (168 MB each) fails
    it. A fresh process measures its own peak, as Linux's VmHWM where it has one: its
    ru_maxrss would hold the test process's peak too. Exit 1 (truncated at stretcher) is
    the expected verdict."""
    scheme = str(tmp_path / "precomputed_sums20.scm")
    save_scheme(build_precomputed_sums(20), scheme)
    code = ("import contextlib, io, resource, sys\n"
            "from cellprobe.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['pipeline', '--scheme', sys.argv[1], '--c', '11/10',"
            " '--format', 'machine'])\n"
            # ru_maxrss keeps, across exec, the peak of the process that spawned this
            # one; VmHWM is this process's own
            "try:\n"
            "    with open('/proc/self/status') as fh:\n"
            "        peak = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "except (OSError, StopIteration):\n"
            "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(code, peak / 1024)\n")
    done = subprocess.run([sys.executable, "-c", code, scheme], capture_output=True,
                          text=True, env=src_env, timeout=60)
    assert done.returncode == 0, done.stderr
    exit_code, peak_mb = done.stdout.split()
    assert int(exit_code) <= 1
    assert float(peak_mb) <= 160
