"""Outcome checks: every timed command and step call is checked after timing.

CLI commands are compared with the outcomes recorded in ``expected/``.  Step
calls have no recorded outcome; their stated guarantees are rechecked
exactly from the inputs, independently of the program's own checks.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

VERIFY_KEYS = (
    "status", "inputs_checked", "failures",
    "counterexample_x", "counterexample_i", "counterexample_got", "counterexample_expected",
)


def parse_machine(text: str) -> dict[str, str]:
    """``key=value`` lines of a ``--format machine`` report, in order."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def verify_outcome(exit_code: int, text: str) -> dict:
    fields = parse_machine(text)
    out = {"exit": exit_code}
    out.update({k: fields[k] for k in VERIFY_KEYS if k in fields})
    return out


def pipeline_outcome(exit_code: int, text: str) -> dict:
    """The parts of a pipeline report that a faster program must keep.

    Sampling bookkeeping (``preserved_inputs_checked``,
    ``preservation_exhaustive``, ``pairs_tested``, ``pairs_sampled``) is
    left out on purpose: making those checks exhaustive is planned work.
    """
    fields = parse_machine(text)
    stages: list[str] = []
    for key in fields:
        if key.startswith("stage."):
            name = key.split(".")[1]
            if name not in stages:
                stages.append(name)
    return {
        "exit": exit_code,
        "verdict": fields.get("verdict"),
        "truncated": fields.get("truncated"),
        "stages": stages,
        "checks": {k: v for k, v in fields.items() if k.startswith("check.") or ".check." in k},
        "chain_values": {k: v for k, v in fields.items()
                         if k.startswith("chain.") and k.endswith(".value")},
    }


OUTCOME_OF = {"verify": verify_outcome, "pipeline": pipeline_outcome}


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def command_problems(label: str, exit_code: int, text: str, expected: dict) -> list[str]:
    """Differences between one command's outcome and its recorded outcome."""
    got = OUTCOME_OF[label](exit_code, text)
    want = expected[label]
    return [f"{label}: {key} is {got.get(key)!r}, expected {want[key]!r}"
            for key in want if got.get(key) != want[key]]


# ---------------------------------------------------------------------------
# step calls


def _disjoint_outside(family, chosen, blocker) -> bool:
    total = 0
    union: set = set()
    for v in chosen:
        reduced = set(family[v - 1]) - set(blocker)
        total += len(reduced)
        union |= reduced
    return len(union) == total


def _indices_ok(chosen, n: int) -> bool:
    return all(1 <= v <= n for v in chosen) and list(chosen) == sorted(set(chosen))


def separator_problems(family, g, res) -> list[str]:
    """w >= n/(gq)^q, |B| <= w/g and disjointness outside B, from the inputs."""
    n = len(family)
    q = max(len(s) for s in family)
    g = Fraction(g)
    probs = []
    if not _indices_ok(res.V, n) or res.w != len(res.V):
        probs.append("separator: V is not a set of query indices of size w")
    if Fraction(res.w) < Fraction(n) / (g * q) ** q:
        probs.append(f"separator: w={res.w} below n/(gq)^q")
    if len(res.B) * g > res.w:
        probs.append(f"separator: |B|={len(res.B)} above w/g")
    if not _disjoint_outside(family, res.V, res.B):
        probs.append("separator: chosen probe sets overlap outside B")
    return probs


def bracket_separator_problems(family, c: int, res) -> list[str]:
    """c*a <= b <= c(2c)^a, |B| <= n/lg^b n, w >= n/lg^a n (n a power of two)."""
    n = len(family)
    lg = n.bit_length() - 1
    probs = []
    if not _indices_ok(res.V, n):
        probs.append("bracket separator: V is not a set of query indices")
    if not c * res.a <= res.b <= c * (2 * c) ** res.a:
        probs.append(f"bracket separator: b={res.b} outside [c*a, c(2c)^a] for a={res.a}")
    if Fraction(len(res.B)) > Fraction(n, lg ** res.b):
        probs.append(f"bracket separator: |B|={len(res.B)} above n/lg^b n")
    if Fraction(res.w) < Fraction(n, lg ** res.a):
        probs.append(f"bracket separator: w={res.w} below n/lg^a n")
    if not _disjoint_outside(family, res.V, res.B):
        probs.append("bracket separator: chosen probe sets overlap outside B")
    return probs


def stretcher_problems(indices, n: int, c, res) -> list[str]:
    """Gap rule on every pair and w' >= 2*floor(w/(c lg n)) (n a power of two)."""
    c = Fraction(c)
    lg = n.bit_length() - 1
    vp = res.v_prime
    probs = []
    if len(vp) % 2 or not set(vp) <= set(indices) or list(vp) != sorted(set(vp)):
        probs.append("stretcher: v' is not an even ascending subsequence of the indices")
    prev = 0
    for k in range(0, len(vp) - 1, 2):
        left, right = vp[k], vp[k + 1]
        if left - prev < c * (right - left):
            probs.append(f"stretcher: pair ({left}, {right}) after {prev} breaks the gap rule")
        prev = right
    floor = 2 * math.floor(Fraction(len(indices)) / (c * lg))
    if len(vp) < floor:
        probs.append(f"stretcher: w'={len(vp)} below 2*floor(w/(c lg n))={floor}")
    return probs


def _tail(n_trials: int, threshold) -> Fraction:
    lo = max(0, math.ceil(threshold))
    return Fraction(sum(math.comb(n_trials, k) for k in range(lo, n_trials + 1)), 2 ** n_trials)


def witness_fields(wit) -> dict:
    """The recorded fields of an ``EntropySumWitness``, as JSON values."""
    return {
        "t": wit.t, "s": str(wit.s), "s_prime": str(wit.s_prime),
        "P_upper": str(wit.P_upper), "P_lower": str(wit.P_lower),
        "P_joint": str(wit.P_joint), "holds": wit.holds,
    }


def entropy_sum_problems(args, want: dict, wit) -> list[str]:
    """Recorded witness fields, and t maximal with Pr[Bin(p) >= t] >= 1/4."""
    p = args[1]
    probs = []
    if not (_tail(p, wit.t) >= Fraction(1, 4) > _tail(p, wit.t + 1)):
        probs.append(f"entropy-sum {args}: t={wit.t} is not the largest quarter-tail threshold")
    got = witness_fields(wit)
    probs += [f"entropy-sum {args}: {k} is {got[k]!r}, expected {want[k]!r}"
              for k in want if got[k] != want[k]]
    return probs
