"""Self-tests of the benchmark's own checks.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import copy
import os
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cellprobe.cli  # noqa: E402  (the package does not import its CLI)
import outcomes  # noqa: E402
from run import Runner, benchmark_digest, compare_with_earlier_run, src_digest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402


def test_one_corrupted_expected_value_is_one_failure():
    runner = Runner(ROOT, WORKLOADS["brackets20"], seed=0, seconds=0)
    try:
        runner.set_up(1)
        runner.expected = copy.deepcopy(runner.expected)
        runner.expected["pipeline"]["chain_values"]["chain.0.value"] = "1"
        runner.iteration()
    finally:
        runner.close()
    assert runner.attempted == 2
    assert runner.failed == 1
    assert len(runner.problems) == 1
    assert runner.problems[0].startswith("pipeline: chain_values")


def test_spins_inside_a_timed_piece_are_recorded_and_left_out():
    runner = Runner(ROOT, WORKLOADS["brackets20"], seed=0, seconds=0)
    runner.sampling = True

    def busy():  # 1.2 s of wall time, the timer's spins included
        t = time.perf_counter()
        while time.perf_counter() - t < 1.2:
            pass
        return "done"

    result, error, seconds = runner.timed(busy)
    assert (result, error) == ("done", None)
    assert len(runner.calib) == 2
    assert abs(seconds - (1.2 - sum(runner.calib))) < 0.05
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    result, error, _ = runner.timed(lambda: 1 / 0)
    assert result is None and isinstance(error, ZeroDivisionError)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_broken_step_guarantees_are_failures():
    family = [{0, 1}, {1, 2}, {3}, {4}]
    res = cellprobe.find_separator(family, 1)
    assert outcomes.separator_problems(family, 1, res) == []
    forged = copy.copy(res)
    object.__setattr__(forged, "V", (1, 2, 3))
    object.__setattr__(forged, "w", 3)
    assert any("overlap" in p for p in outcomes.separator_problems(family, 1, forged))

    indices = list(range(1, 41))
    res = cellprobe.find_stretcher(indices, 64, 2)
    assert outcomes.stretcher_problems(indices, 64, 2, res) == []
    forged = copy.copy(res)
    object.__setattr__(forged, "v_prime", (1, 2) + res.v_prime[2:])
    assert any("gap rule" in p for p in outcomes.stretcher_problems(indices, 64, 2, forged))

    wit = cellprobe.entropy_sum_analysis_uniform(261, 1, 257, 261, 64)
    want = outcomes.load_expected("steps65536")["entropy_sum"]["261,1,257,261,64"]
    assert outcomes.entropy_sum_problems((261, 1, 257, 261, 64), want, wit) == []
    forged = copy.copy(wit)
    object.__setattr__(forged, "t", wit.t + 1)
    object.__setattr__(forged, "P_lower", Fraction(1, 3))
    assert len(outcomes.entropy_sum_problems((261, 1, 257, 261, 64), want, forged)) == 3


def test_tracer_counts_exactly_and_restores_every_binding(tmp_path):
    path = str(tmp_path / "p.scm")
    run_cli(cellprobe, ["build-scheme", "--name", "precomputed_sums", "--n", "4", "--out", path])
    original = cellprobe.cli.verify_scheme
    tracer = Tracer()
    tracer.install(cellprobe)
    try:
        assert cellprobe.cli.verify_scheme is not original
        assert cellprobe.verify_scheme is cellprobe.core.verify_scheme
        tracer.trace_id = 7
        code, out = run_cli(cellprobe, ["verify", "--scheme", path])
    finally:
        tracer.uninstall()
    assert code == 0 and "status: pass" in out
    assert cellprobe.cli.verify_scheme is original
    assert cellprobe.core.Scheme.encode.__name__ == "encode"
    assert not hasattr(cellprobe.core.Scheme.encode, "__wrapped__")
    stats = tracer.summarize([7])
    assert stats["core.Scheme.encode.calls"] == 16
    assert stats["core.Scheme.inputs.yielded"] == 16
    assert stats["cli.main.calls"] == 1
    assert stats["core.verify_scheme.total_s"] <= stats["cli.main.total_s"]
    assert abs(stats["cli.main.total_s"] - sum(
        v for k, v in stats.items() if k.endswith(".self_s") and not k.startswith("core.answer")
    )) < 1e-9


def test_a_count_that_differs_between_traced_runs_is_flagged(tmp_path):
    runner = Runner(ROOT, WORKLOADS["rank16"], seed=0, seconds=0)
    runner.out_dir = str(tmp_path)
    counts = {"core.Scheme.encode.calls": 10, "core.Scheme.inputs.yielded": 4}
    assert compare_with_earlier_run(runner, counts) == []
    assert compare_with_earlier_run(runner, dict(counts)) == []
    changed = dict(counts, **{"core.Scheme.encode.calls": 11})
    assert compare_with_earlier_run(runner, changed) == ["core.Scheme.encode.calls"]
    assert runner.count_problems == [
        "count core.Scheme.encode.calls differs from an earlier traced run"]
    # counts are kept per version of the program and of the benchmark itself
    (stored,) = os.listdir(tmp_path / "counts")
    assert src_digest(ROOT) in stored and benchmark_digest(ROOT) in stored
