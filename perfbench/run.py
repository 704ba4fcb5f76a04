"""cellprobe benchmark: end-to-end timings (trace 0) or per-layer spans (trace 1).

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout.  A timing run sets up
several times (reporting the median set-up time), then runs closed-loop
iterations until ``--seconds`` have passed and reports medians with their
sample counts.  A short calibration spin runs between set-ups and iterations
and, from a timer signal, every half second inside them; the gated times are
scaled by it to a reference host speed.  A traced run sets up under the span wrappers, then alternates untraced and
traced iterations, at least two of each.  Every command and step call is
checked after it is timed.  Human-readable
lines come first; the last line of stdout is one JSON object.  Full results
and the spans go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import outcomes
from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up repeats at least SETUP_REPEATS times and for at least SETUP_SECONDS.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
MIN_TRACED_ITERATIONS = 2
# The calibration spin runs SPINS_PER_POINT times between set-ups and
# iterations and, in timing runs, once every SAMPLE_INTERVAL_S inside them.
# Each set-up and iteration is scaled to a host on which the median of the
# spins from just before it to just after it takes REFERENCE_SPIN_S (DESIGN.md).
SPIN_ROUNDS = 100_000
SPINS_PER_POINT = 3
SAMPLE_INTERVAL_S = 0.5
REFERENCE_SPIN_S = 0.016
# save_scheme runs only in set-up, so its per-layer value comes from the traced set-up.
SETUP_PHASE_METRICS = ("schemeio.save_scheme.total_s",)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import cellprobe.cli; print(time.perf_counter() - t)"
)


def spin() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host ran just now."""
    t = time.perf_counter()
    acc = 0
    for i in range(SPIN_ROUNDS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t


def child_import_seconds(root: str) -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def src_lines(root: str) -> dict[str, int]:
    counts = {}
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(base, fname)
                with open(path, encoding="utf-8") as fh:
                    counts[os.path.relpath(path, src)] = sum(1 for _ in fh)
    return counts


def src_digest(root: str) -> str:
    h = hashlib.sha256()
    for rel in sorted(src_lines(root)):
        h.update(rel.encode())
        with open(os.path.join(root, "src", rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def benchmark_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """One workload in one process: set-up, closed-loop iterations, checks."""

    def __init__(self, root: str, workload, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = os.path.join(root, ".perfbench_out")
        self.workdir = os.path.join(self.out_dir, f"work-{os.getpid()}")
        self.calib: list[float] = []
        self._spun_last = False
        self.sampling = False   # spin inside timed work too (timing runs only)
        self._window = False    # a timed piece is running
        self._paused = 0.0      # seconds the spins inside the current piece took
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count_problems: list[str] = []
        self.next_trace = 1
        self.tracer = None

    def set_up(self, repeats: int, seconds: float = 0.0) -> tuple[float, float]:
        """Medians over repeats of (child-process import + building the inputs).

        Repeats at least ``repeats`` times and for at least ``seconds``.
        Returns the median in seconds and in reference seconds.
        """
        import cellprobe.cli  # the package itself does not import its CLI
        self.cp = cellprobe
        self.expected = outcomes.load_expected(self.workload.name)
        os.makedirs(self.workdir, exist_ok=True)
        totals, scaled = [], []
        start = time.perf_counter()
        while len(totals) < repeats or time.perf_counter() - start < seconds:
            self.state = None  # so peak memory never holds two copies of the inputs
            gc.collect()
            before = self.spins_before()
            imp = child_import_seconds(self.root)
            self.state, error, dt = self.timed(
                lambda: self.workload.setup(self.cp, self.workdir, self.seed))
            if error is not None:
                raise error
            totals.append(imp + dt)
            scaled.append(totals[-1] * self.scale_since(before))
        self.setup_repeats = len(totals)
        return statistics.median(totals), statistics.median(scaled)

    def iteration(self) -> dict:
        """Run one iteration; return per-call timings and the trace ids used.

        ``seconds`` is the iteration's time, ``scaled`` the same in reference seconds.
        """
        calls = self.workload.calls(self.cp, self.state, self.expected)
        record = {"seconds": 0.0, "calls": [], "traces": []}
        done = []
        before = -1
        for call in calls:
            tid = self.next_trace
            self.next_trace += 1
            # garbage left by earlier calls is collected outside the timed region
            gc.collect()
            if before < 0:
                before = self.spins_before()
            if self.tracer is not None:
                self.tracer.trace_id = tid
            payload, error, dt = self.timed(call.run)
            if error is not None:  # a failed call is counted, not fatal
                error = f"{call.label} raised {type(error).__name__}: {error}"
            if self.tracer is not None:
                self.tracer.trace_id = -1
            record["seconds"] += dt
            record["calls"].append((call.label, dt))
            record["traces"].append(tid)
            done.append((call, payload, error))
        record["scaled"] = record["seconds"] * self.scale_since(before)
        for call, payload, error in done:
            found = [error] if error else call.check(payload)
            self.attempted += 1
            self.failed += bool(found)
            self.problems += found
        return record

    def loop(self, minimum: int, step=None) -> list[dict]:
        """Closed loop: iterate until ``seconds`` have passed and ``minimum`` iterations ran.

        ``step`` runs one iteration; by default ``iteration``.
        """
        step = step or self.iteration
        start = time.perf_counter()
        records = []
        while len(records) < minimum or time.perf_counter() - start < self.seconds:
            records.append(step())
        return records

    def timed(self, fn):
        """Run ``fn``; return its result, the exception it raised or None, and its seconds.

        With ``sampling`` on, a timer signal spins every SAMPLE_INTERVAL_S
        while ``fn`` runs; those spins are recorded and their time is left out.
        """
        self._paused = 0.0
        if self.sampling:
            self._window = True
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as err:
            result, error = None, err
        finally:
            self._window = False  # a signal still pending from here on does nothing
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
        return result, error, time.perf_counter() - t - self._paused

    def _sample(self, signum, frame) -> None:
        if self._window:
            t = time.perf_counter()
            self.calib.append(spin())
            self._paused += time.perf_counter() - t

    def calibrate(self) -> None:
        self.calib += [spin() for _ in range(SPINS_PER_POINT)]
        self._spun_last = True

    def spins_before(self) -> int:
        """Index in ``calib`` of the spins just before a timed piece: fresh ones
        unless the last step was spinning."""
        if not self._spun_last:
            self.calibrate()
        self._spun_last = False
        return len(self.calib) - SPINS_PER_POINT

    def scale_since(self, before: int) -> float:
        """Spin again; the factor from seconds to reference seconds for the piece
        timed since the spins at ``before``, taken from every spin since then."""
        self.calibrate()
        return REFERENCE_SPIN_S / statistics.median(self.calib[before:])

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        shutil.rmtree(self.workdir, ignore_errors=True)


def per_call_medians(records) -> dict[str, tuple[float, float, int]]:
    """Per kind of call: median seconds, median reference seconds, sample count.

    A call is scaled with the factor of the iteration it ran in.
    """
    by_label: dict[str, list[tuple[float, float]]] = {}
    for rec in records:
        factor = rec["scaled"] / rec["seconds"]
        for label, dt in rec["calls"]:
            by_label.setdefault(label, []).append((dt, dt * factor))
    return {label: (statistics.median(v[0] for v in pairs),
                    statistics.median(v[1] for v in pairs), len(pairs))
            for label, pairs in by_label.items()}


def timing_run(runner: Runner, spec: dict) -> tuple[dict, dict]:
    runner.sampling = True
    raw_setup_s, setup_s = runner.set_up(SETUP_REPEATS, SETUP_SECONDS)
    records = runner.loop(minimum=1)
    metrics = {
        "setup_s": setup_s,
        "iteration_s": statistics.median(r["scaled"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    detail = {
        "iterations": len(records),
        "setup_repeats": runner.setup_repeats,
        "per_call_median_s": per_call_medians(records),
        "iteration_s_samples": [r["seconds"] for r in records],
        "scaled_iteration_s_samples": [r["scaled"] for r in records],
        "raw_iteration_s": statistics.median(r["seconds"] for r in records),
        "raw_setup_s": raw_setup_s,
        "host.calib_s": statistics.median(runner.calib),
        "calib_samples": runner.calib,
    }
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}, detail


def _exact_counts(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k.endswith((".calls", ".yielded"))}


def traced_run(runner: Runner, spec: dict) -> tuple[dict, dict]:
    """Untraced and traced iterations alternate, so both see the same host speed."""
    runner.set_up(1)
    runner.tracer = Tracer()
    runner.tracer.install(runner.cp)
    runner.tracer.trace_id = 0
    runner.workload.setup(runner.cp, runner.workdir, runner.seed)
    runner.tracer.trace_id = -1
    runner.tracer.uninstall()

    untraced, records = [], []

    def pair() -> dict:
        untraced.append(runner.iteration())
        runner.tracer.install(runner.cp)
        try:
            records.append(runner.iteration())
        finally:
            runner.tracer.uninstall()
        return records[-1]

    runner.loop(minimum=MIN_TRACED_ITERATIONS, step=pair)

    setup_summary = runner.tracer.summarize([0])
    summaries = [runner.tracer.summarize(r["traces"]) for r in records]
    counts = [_exact_counts(s) for s in summaries]
    mismatch = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts[1:]))
    runner.count_problems += [f"count {k} differs between traced iterations" for k in mismatch]
    mismatch += compare_with_earlier_run(runner, counts[0])

    traced_s = statistics.median(r["seconds"] for r in records)
    untraced_s = statistics.median(r["seconds"] for r in untraced)
    values = dict(counts[0])
    for k in summaries[0]:
        if k.endswith("_s"):
            values[k] = statistics.median(s[k] for s in summaries)
    for k in SETUP_PHASE_METRICS:
        values[k] = setup_summary[k]
    values["host.calib_s"] = statistics.median(runner.calib)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    values["src.lines"] = sum(src_lines(runner.root).values())
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in spec["per_layer"]}

    os.makedirs(os.path.join(runner.out_dir, "spans"), exist_ok=True)
    runner.tracer.save(os.path.join(runner.out_dir, "spans", f"{runner.workload.name}.npz"))
    detail = {
        "iterations": len(records),
        "untraced_iteration_s": untraced_s,
        "traced_iteration_s": traced_s,
        "count_mismatches": mismatch,
        # listed but absent from the program: reported as 0
        "not_traced": [m["name"] for m in spec["per_layer"] if m["name"] not in values],
        "all_layers": values,
    }
    return metrics, detail


def benchmark_digest(root: str) -> str:
    """Digest of the benchmark's own files: counts depend on its workloads too."""
    h = hashlib.sha256()
    names = sorted(f for f in os.listdir(HERE) if f.endswith(".py"))
    for path in [os.path.join(HERE, f) for f in names] + [os.path.join(root, "BENCHMARK.json")]:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def compare_with_earlier_run(runner: Runner, counts: dict) -> list[str]:
    """Exact counts must repeat across traced runs of the same program and benchmark."""
    key = runner.workload.name
    if runner.workload.seed_dependent:
        key += f"-seed{runner.seed}"
    key += f"-{src_digest(runner.root)}-{benchmark_digest(runner.root)}"
    path = os.path.join(runner.out_dir, "counts", f"{key}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return []
    with open(path, encoding="utf-8") as fh:
        earlier = json.load(fh)
    diff = sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
    runner.count_problems += [f"count {k} differs from an earlier traced run" for k in diff]
    return diff


def report_lines(name: str, seed: int, trace: int, metrics: dict, detail: dict,
                 runner: Runner) -> list[str]:
    lines = [f"workload {name} seed {seed} trace {trace}"]
    if "iteration_s_samples" in detail and runner.workload.seed_dependent:
        lines.append(f"  step_round_s = {metrics['iteration_s']['value']:.4f} s "
                     f"(median of {detail['iterations']}; {detail['raw_iteration_s']:.4f} s unscaled)")
    for label, (med, scaled, count) in sorted(detail.get("per_call_median_s", {}).items()):
        lines.append(f"  {label}_s = {scaled:.4f} s (median of {count}; {med:.4f} s unscaled)")
    for k, m in metrics.items():
        lines.append(f"  {k} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  ops_failed_frac = {runner.failed / runner.attempted:.6g} fraction "
                 f"({runner.failed} of {runner.attempted} commands and step calls)")
    for k, unit in (("iterations", "count"), ("setup_repeats", "count"), ("raw_iteration_s", "s"), ("raw_setup_s", "s"),
                    ("host.calib_s", "s"),
                    ("untraced_iteration_s", "s"), ("traced_iteration_s", "s")):
        if k in detail:
            lines.append(f"  {k} = {detail[k]:.6g} {unit}")
    lines.append(f"  src_lines = {sum(detail['src_lines'].values())} lines "
                 f"(per module in the results file)")
    lines += [f"  not traced (reported as 0): {k}" for k in detail.get("not_traced", ())]
    lines += [f"  PROBLEM: {p}" for p in (runner.problems + runner.count_problems)[:20]]
    return lines


def run_one(root: str, args) -> int:
    spec = benchmark_spec(root)
    runner = Runner(root, WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        if args.trace:
            metrics, detail = traced_run(runner, spec)
        else:
            metrics, detail = timing_run(runner, spec)
    finally:
        runner.close()
    detail["src_lines"] = src_lines(root)
    detail["problems"] = runner.problems + runner.count_problems
    os.makedirs(os.path.join(runner.out_dir, "results"), exist_ok=True)
    result_path = os.path.join(runner.out_dir, "results",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "detail": detail}, fh, indent=1, sort_keys=True)
    for line in report_lines(args.workload, args.seed, args.trace, metrics, detail, runner):
        print(line)
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.count_problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def run_all(root: str, args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cellprobe", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a cellprobe checkout (no src/cellprobe)\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.workload == "all":
        return run_all(root, args)
    return run_one(root, args)


if __name__ == "__main__":
    raise SystemExit(main())
