"""The adversary pipeline: one walk that replays the lower-bound argument on a scheme.

The prefix-sum (Sum) and bracket-matching (Match) bounds share one argument,
and ``run_pipeline`` walks it once for both query kinds:

1. separator: a small blocker set B and queries V whose probes are disjoint
   outside B;
2. cell-fixing: fix the cells of B to their most likely joint value, keeping
   the inputs X that agree with it;
3. good-cells: keep the near-uniform cells of Y = enc(X) and the queries V2
   whose probes stay inside them;
4. the kind's pair stage, which picks index pairs from V2 (Sum: stretcher;
   Match: close-pairs);
5. entropy-blocks: cut [1, n] after each pair and choose a high-entropy block;
6. Sum only, entropy-sum: the threshold that names Sum's two events;
7. final-chain: eight lines from Pr_X of the joint event down to a floor.

What the kinds do differently lives in one small record each, ``_Sum`` and
``_Match``: it validates c, holds the kind's parameters, and supplies the
kind's separator fields and checks, its floors on |V2|, its pair stage, its
own entropy-blocks fields and its chain inputs (the two events, their
probabilities over X, the check on line 0, and lines 6-7).

Every claimed inequality is measured exactly on the given scheme.  At
workbench sizes many asymptotic guarantees fail; every check is recorded
honestly and the run continues best-effort.  A stage that leaves nothing to
go on ends the report, which names that stage: stretcher when the sweep found
no pair, close-pairs when V holds fewer than two queries, and entropy-sum
when the good prefixes carry under 1/4 of the mass, so no threshold exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .brackets import unmatched_close_prob, unmatched_ends, unmatched_open_prob
from .core import (
    _ENCODE_CHUNK,
    DOMAIN_ALL,
    KIND_SUM,
    RestrictedScheme,
    Scheme,
    check_budget,
    redundancy,
    restrict_scheme,
)
from .entropy_sum import entropy_sum_analysis
from .errors import ParameterError, SizeError
from .infotheory import (
    Distribution,
    _tv,
    cell_dtype,
    columns_tv,
    distinct_rows,
    good_blocks,
    good_cells,
    prefix_groups,
)
from .separator import find_separator, find_separator_brackets, pairwise_disjoint
from .stretcher import find_stretcher
from .textfmt import fmt, fmt_short, machine_value as _mval

__all__ = ["ChainLine", "PipelineReport", "StageRecord", "run_pipeline"]


@dataclass(frozen=True)
class StageRecord:
    """One pipeline stage: measured fields plus named guarantee checks."""

    name: str
    fields: tuple[tuple[str, object], ...]
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(v for _, v in self.checks)

    def field(self, key: str):
        return dict(self.fields)[key]


@dataclass(frozen=True)
class ChainLine:
    """One display line of the final contradiction chain.

    ``relation`` states how the previous line compares to this one and
    ``ok`` whether that comparison held as measured (None when the value
    could not be computed and the comparison was skipped).
    """

    label: str
    value: object
    relation: str | None
    justification: str
    ok: bool | None


@dataclass(frozen=True)
class PipelineReport:
    kind: str
    scheme_label: str
    n: int
    u: int
    q: int
    cell_alphabet: int
    c: object
    stages: tuple[StageRecord, ...]
    chain: tuple[ChainLine, ...]
    chain_checks: tuple[tuple[str, bool], ...]
    truncated_at: str | None

    @property
    def completed(self) -> bool:
        return self.truncated_at is None

    @property
    def contradiction(self) -> bool:
        return any(k == "contradiction" and ok for k, ok in self.chain_checks)

    @property
    def verdict(self) -> str:
        if self.truncated_at is not None:
            return f"truncated at {self.truncated_at}"
        if self.contradiction:
            return "contradiction manifest"
        return "no contradiction at this scale"

    def stage(self, name: str) -> StageRecord:
        return {st.name: st for st in self.stages}[name]

    def render_text(self) -> str:
        title = {
            "prefix": "prefix-sum adversary pipeline",
            "brackets": "bracket-matching adversary pipeline",
        }[self.kind]
        out = [title]
        out.append(
            f"scheme: {self.scheme_label}  n={self.n} u={self.u} "
            f"q={self.q} alphabet={self.cell_alphabet}"
        )
        out.append(f"c = {fmt(self.c)}")
        for st in self.stages:
            out.append(f"[{st.name}]")
            for k, v in st.fields:
                out.append(f"  {k} = {fmt(v)}")
            for k, ok in st.checks:
                out.append(f"  check {k}: {'ok' if ok else 'FAIL'}")
        if self.chain:
            out.append("[final-chain]")
            for idx, line in enumerate(self.chain):
                rel = line.relation if line.relation is not None else " "
                status = "ok" if line.ok else ("skip" if line.ok is None else "FAIL")
                out.append(
                    f"  ({idx}) {rel:>2} {line.label} = {fmt(line.value)}"
                    f"  [{line.justification}] {status}"
                )
            for k, ok in self.chain_checks:
                out.append(f"  check {k}: {'ok' if ok else 'FAIL'}")
        out.append(f"truncated: {self.truncated_at or '-'}")
        out.append(f"verdict: {self.verdict}")
        return "\n".join(out) + "\n"

    def render_machine(self) -> str:
        out = [
            f"pipeline={self.kind}",
            f"scheme={self.scheme_label}",
            f"n={self.n}",
            f"u={self.u}",
            f"q={self.q}",
            f"alphabet={self.cell_alphabet}",
            f"c={_mval(self.c)}",
        ]
        for st in self.stages:
            for k, v in st.fields:
                out.append(f"stage.{st.name}.{k}={_mval(v)}")
            for k, ok in st.checks:
                out.append(f"stage.{st.name}.check.{k}={'ok' if ok else 'fail'}")
        for idx, line in enumerate(self.chain):
            status = "ok" if line.ok else ("skip" if line.ok is None else "fail")
            out.append(f"chain.{idx}.label={line.label}")
            out.append(f"chain.{idx}.relation={line.relation or '-'}")
            out.append(f"chain.{idx}.value={_mval(line.value)}")
            out.append(f"chain.{idx}.status={status}")
        for k, ok in self.chain_checks:
            out.append(f"check.{k}={'ok' if ok else 'fail'}")
        out.append(f"truncated={self.truncated_at or '-'}")
        out.append(f"verdict={self.verdict}")
        return "\n".join(out) + "\n"


class _Sum:
    """The prefix-sum argument: a rational c in (1, n], the separator's gap g = (lg n)^c,
    eta = eps = 1/c, the stretcher as the pair stage and events named by entropy-sum."""

    name, eta_name, x_name = "prefix", "1/c", "sum"
    good_cells_head = ()

    def __init__(self, scheme: Scheme, c):
        if scheme.domain != DOMAIN_ALL:
            # Scheme allows Sum queries over balanced strings; this argument does not
            raise ParameterError("the prefix pipeline needs a Sum scheme over all bitstrings")
        n = scheme.n
        if n < 2:
            raise ParameterError("the prefix pipeline needs n >= 2")
        # decided on the exact Fraction, before any float or power of c is formed
        cf = Fraction(c)
        if not 1 < cf <= n:
            raise ParameterError(f"c must exceed 1 and be at most n = {n}, got {fmt_short(cf)}")
        lg = math.log2(n)
        try:
            self.g = Fraction(lg) ** int(cf) if cf.denominator == 1 else Fraction(lg ** float(cf))
        except OverflowError:
            raise ParameterError(f"(lg n)^c overflows a float for c = {fmt_short(cf)}") from None
        self.scheme, self.c, self.cf = scheme, c, cf
        self.eta = self.eps = 1 / cf

    def separate(self, probes):
        """The separator at gap g, with this kind's separator fields before and after
        the shared ones and its checks; sets the floors on |V2| from its w."""
        sep = find_separator(probes, self.g)
        redundant = 32 * self.scheme.q * redundancy(self.scheme) * float(self.cf) ** 2
        self.floors = (("v2_half", Fraction(sep.w, 2)), ("v2_redundancy", sep.w - redundant))
        return sep, (("g", self.g), ("k0", sep.k0)), (), sep.checks

    def pair_stage(self, v2, v, stages):
        """Record the stretcher stage over V2; returns its pairs (left, right)."""
        st = find_stretcher(sorted(v2), self.scheme.n, self.c)
        stages.append(StageRecord(
            "stretcher",
            (("t", st.t), ("w", st.w), ("w_prime", st.w_prime), ("v_prime", st.v_prime),
             ("guarantee", st.guarantee), ("stuck_at", st.stuck_at), ("stuck_window", st.window)),
            (("pair_rule", all(p.satisfies(self.c) for p in st.pairs)),
             ("w_prime_floor", st.guarantee_ok), ("sweep_completed", st.stuck_at is None)),
        ))
        return [(p.left, p.right) for p in st.pairs]

    def block(self, x_dist: Distribution, p: int, hi: int, i: int, j: int):
        """This kind's entropy-blocks fields and checks: the block's start p and its pair."""
        return (("p", p), ("i", i), ("j", j)), ()

    def chain_inputs(self, x_dist: Distribution, p: int, i: int, j: int, stages):
        """Record the entropy-sum stage, whose threshold names the events sum_j >= s and
        sum_i < s'; return them with their X-side probabilities, the line-0 check and
        lines 6-7, or None when no threshold exists."""
        wit = entropy_sum_analysis(x_dist, p, i, j, self.c)
        stages.append(StageRecord(
            "entropy-sum",
            tuple((name, getattr(wit, name)) for name in (
                "ell", "d", "t", "s", "s_prime", "s_exact", "a_size", "pr_A", "P_upper", "P_lower",
                "P_lower_leq", "P_joint", "block_bound")),
            (
                ("hypothesis", wit.hypothesis_ok),
                ("ratio", wit.ratio_ok),
                ("prefix_mass", wit.prefix_report.claim_half_ok),
                ("upper_tail", wit.holds_upper),
                ("lower_tail", wit.holds_lower),
                ("joint_tail", wit.holds_joint),
            ),
        ))
        if wit.t is None:
            return None
        # answers are integers, so v >= s and v < s' hold exactly when they hold at the
        # witness's integer cuts, ceil s and ceil s'
        s, sp = wit.cuts[:2]
        return (
            (("j >= s", j, lambda v: v >= s), ("i < s'", i, lambda v: v < sp)),
            (wit.P_upper, wit.P_lower, wit.P_joint),
            ("joint_bound", "joint tail bound at the threshold", wit.holds_joint),
            (("(1/10 - 1/c)^2 - 1/c", (Fraction(1, 10) - self.eta) ** 2 - self.eta,
              "tail bounds at the chosen threshold"),
             ("1/200", Fraction(1, 200), "parameter floor")),
        )


class _Match:
    """The bracket-matching argument: an integer c, d = 16 (lg n)^a from the separator's
    a, eta = 1/(cd), eps = 1/(16 c^2 d), close-pairs as the pair stage."""

    name, eta_name, x_name = "brackets", "1/(cd)", "match"

    def __init__(self, scheme: Scheme, c):
        if scheme.n < 4 or scheme.n % 2:
            raise ParameterError("the bracket pipeline needs even n >= 4")
        cf = Fraction(c)
        if cf.denominator != 1:
            raise ParameterError(f"c must be an integer, got {fmt_short(cf)}")
        self.scheme, self.c = scheme, int(cf)

    def separate(self, probes):
        """The bracket separator, with this kind's separator fields before and after the
        shared ones and its checks; sets d and every parameter built on it from its a."""
        c = self.c
        sep = find_separator_brackets(probes, c)
        n, a = self.scheme.n, sep.a
        lg = math.log2(n)
        try:
            self.d = math.ldexp(lg ** a, 4)  # 16 (lg n)^a exactly; each step raises past the range
        except OverflowError:
            raise ParameterError(
                f"d = 16 (lg n)^a is past the float range for c = {c} (a = {a})") from None
        self.sqrt_d = math.sqrt(self.d)
        self.eta = Fraction(1) / (Fraction(c) * Fraction(self.d))
        self.eps = Fraction(1) / (16 * Fraction(c) ** 2 * Fraction(self.d))
        self.good_cells_head = (("d", self.d),)
        self.floors = (("v2_floor", n / (2.0 * lg ** a)),)
        self.v3_floor = n / (16.0 * lg ** a)
        return (sep, (("a", a), ("b", sep.b)),
                (("size_floor_ok", sep.size_floor_ok), ("precondition_ok", sep.precondition_ok)),
                (*sep.checks, ("v_floor", sep.v_floor)))

    def pair_stage(self, v2, v, stages):
        """Record the close-pairs stage: V2 paired off in order, a pair kept when closer
        than d.  Returns the kept pairs or, when none is, the closest two queries of V."""
        v2 = sorted(v2)
        candidates = list(zip(v2[0::2], v2[1::2]))
        kept = [(i, j) for i, j in candidates if j - i < self.d]
        stages.append(StageRecord(
            "close-pairs",
            (("candidate_pairs", len(candidates)), ("kept_pairs", len(kept)),
             ("v3", tuple(x for pr in kept for x in pr))),
            (("v3_floor", len(kept) >= self.v3_floor),),
        ))
        # the encoding budget encodes no balanced domain at n >= 34, so j - i <= 31 < 32 <= d:
        # no candidate is dropped
        self.fallback = "close-pairs" if kept else "closest-in-v"
        if kept or len(v) < 2:
            return kept
        vs = sorted(v)
        return [min(zip(vs, vs[1:]), key=lambda pr: (pr[1] - pr[0], pr[0]))]

    def block(self, x_dist: Distribution, lo: int, hi: int, i: int, j: int):
        """This kind's entropy-blocks fields and checks: the fallback, the pair, and how
        close the chosen block's bits come to uniform.  The first block is a prefix, whose
        values are the runs of X's rows at its end; any other is counted."""
        if lo:
            (tv,) = columns_tv(x_dist.rows, [range(lo, hi)], x_dist.counts, x_dist.denom, 2)
        else:
            tallies = prefix_groups(x_dist.prefix_runs(), x_dist.counts, 0, hi)[1]
            tv = _tv(tallies, x_dist.denom, 2 ** hi)
        bound = Fraction(1) / (Fraction(self.c) * Fraction(self.sqrt_d))
        return (
            (("fallback", self.fallback), ("i", i), ("j", j), ("block_tv", tv),
             ("closeness_bound", bound)),
            (("block_close", tv <= bound), ("pairs_direct", self.fallback == "close-pairs")),
        )

    def chain_inputs(self, x_dist: Distribution, p: int, i: int, j: int, stages):
        """The events match_i > j and match_j < i, their X-side probabilities read off the
        window [i, j] of X, the line-0 check and lines 6-7."""
        x_probs = _event_probs(*unmatched_ends(x_dist.rows[:, i - 1:j]), x_dist.counts)
        window = j - i + 1
        eta2 = Fraction(2.0 / (self.c * self.sqrt_d))
        v6 = _product_bound(unmatched_open_prob(window), unmatched_close_prob(window),
                            eta2, self.eta)
        return (
            (("i > j", i, lambda v: v > j), ("j < i", j, lambda v: v < i)),
            x_probs,
            ("left_side_zero", "partners cannot cross", x_probs[2] == 0),
            (("(Pr_full[match_i > j] - 2/(c sqrt d))(Pr_full[match_j < i] - 2/(c sqrt d)) - 1/(cd)",
              v6, "block close to uniform window bits"),
             ("0", Fraction(0), "unmatched-window probabilities")),
        )


def _separate_and_fix(scheme: Scheme, kind, stages):
    """Record the kind's separator, its own fields around the shared ones and the
    ``disjoint`` check last, then fix the blocker cells to their most likely value.
    Returns the separator's result and the restricted scheme."""
    sep, head, tail, checks = kind.separate(scheme.probes)
    b_sorted = tuple(sorted(sep.B))
    v_sets = [set(scheme.probes[v - 1]) - sep.B for v in sep.V]
    stages.append(StageRecord(
        "separator",
        (*head, ("stages_run", sep.stages_run), ("w", sep.w), ("v", sep.V),
         ("b_cells", b_sorted), *tail),
        (*checks, ("disjoint", pairwise_disjoint(v_sets))),
    ))
    rs = restrict_scheme(scheme, b_sorted)
    survivors = len(rs.rows)
    dom = scheme.domain_size()
    stages.append(StageRecord(
        "cell-fixing",
        (
            ("fixed_cells", b_sorted),
            ("fixed_values", rs.fixed_values),
            ("survivors", survivors),
            ("deficiency_bits", math.log2(dom) - math.log2(survivors)),
            ("u_prime", rs.u_prime),
            ("preserved_inputs_checked", survivors),
            ("preservation_exhaustive", True),
        ),
        (
            ("pigeonhole", survivors * (scheme.cell_alphabet ** len(b_sorted)) >= dom),
            ("answers_preserved", rs.preserves_answers()),
        ),
    ))
    return sep, rs


def _good_cells(rs: RestrictedScheme, scheme: Scheme, eta: Fraction, v_set, head, floors, stages):
    """Keep the near-uniform cells, the queries inside them, and test every pair.

    ``floors`` names the kind's lower bounds on |V2|, each checked as a stage
    check after the shared ones.  Returns V2.
    """
    m = scheme.cell_alphabet
    u_p = rs.u_prime
    # Y's rows come in X's rank order, not sorted; good_cells and columns_tv read no row
    # order, so rows proven distinct are held as they come, and only others are grouped
    cells = rs.cells()
    y_dist = (Distribution.on_distinct_rows(cells) if distinct_rows(cells)
              else Distribution.from_rows(cells))
    subset_size = min(2 * scheme.q, u_p)
    try:
        report = good_cells(y_dist, subset_size, eta, m) if subset_size else None
    except SizeError:
        report = None
    skipped = bool(subset_size) and report is None
    good0 = frozenset(range(u_p)) if report is None else frozenset(k - 1 for k in report.good)
    v2 = tuple(v for v in v_set if set(rs.renamed_probes[v - 1]) <= good0)
    pair_list = list(combinations(v2, 2))
    # good_cells counted every subset_size-subset unless the support bound or a SizeError
    # stopped it, and TV to uniform does not depend on column order: only pairs on fewer
    # distinct cells, or not counted there, are counted here, all in one call
    counted = report.subset_tvs if report else {}
    probed = [rs.renamed_probes[i - 1] + rs.renamed_probes[j - 1] for i, j in pair_list]
    tvs = [counted[key] for key in map(tuple, map(sorted, probed)) if key in counted]
    own = [cols for cols in probed if tuple(sorted(cols)) not in counted]
    max_tv = max(tvs + columns_tv(y_dist.rows, own, y_dist.counts, y_dist.denom, m),
                 default=Fraction(0))
    stages.append(StageRecord(
        "good-cells",
        (
            *head,
            ("eta", eta),
            ("subset_size", subset_size),
            ("cells_kept", tuple(sorted(k + 1 for k in good0))),
            ("deficiency_bits", report.deficiency if report else 0.0),
            ("size_bound", report.size_bound if report else float(u_p)),
            ("subsets_skipped", skipped),
            ("v2", v2),
            ("pairs_tested", len(pair_list)),
            ("pairs_sampled", False),
            ("max_pair_tv", max_tv),
        ),
        (
            ("kept_count", (report.size_bound_ok if report else True)),
            ("pair_tv", max_tv <= eta),
            *((name, len(v2) >= floor) for name, floor in floors),
        ),
    ))
    return v2


def _entropy_blocks(x_dist: Distribution, n: int, pairs, kind, stages):
    """Cut [1, n] after each pair's right end and record the stage, the kind's own fields
    and checks last.  The chosen block is the smallest good one if any, else the
    best-scoring one; returns its start and its pair (i, j)."""
    bounds = [0, *(j for _, j in pairs[:-1]), n]
    sizes = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    gb = good_blocks(x_dist, sizes, kind.eps)
    good = [k for k in gb.good if 1 <= k <= len(sizes)]
    k = good[0] - 1 if good else max(range(len(sizes)), key=lambda idx: (gb.scores[idx], -idx))
    i, j = pairs[k]
    fields, checks = kind.block(x_dist, bounds[k], bounds[k + 1], i, j)
    stages.append(StageRecord(
        "entropy-blocks",
        (("sizes", sizes), ("eps", kind.eps), ("scores", gb.scores), ("good_blocks", gb.good),
         ("deficiency_bits", gb.deficiency), ("chosen_block", k + 1), *fields),
        (("good_count", gb.size_bound_ok), ("block_good", bool(good)), *checks),
    ))
    return bounds[k], i, j


def _event_probs(ei, ej, counts) -> tuple[Fraction, Fraction, Fraction]:
    """Pr[ei], Pr[ej] and Pr[ei and ej] over the rows of two event columns, row r
    weighted by counts[r]."""
    total = int(counts.sum())
    return tuple(Fraction(int(counts[e].sum()), total) for e in (ei, ej, ei & ej))


def _event_probs_uniform(rs: RestrictedScheme, m: int, *events):
    """Pr[each (query, predicate) event], then Pr[every event], when the L cells the queries
    probe are uniform, over their m^L value grid (each event alone is an exact marginal of
    it); None when that grid, as an m^L x L matrix of ``cell_dtype(m)``, passes the budget."""
    cells = sorted(set().union(*(rs.renamed_probes[q - 1] for q, _ in events)))
    width = len(cells)
    space = m ** width
    dtype = cell_dtype(m)
    try:
        check_budget(space * width * dtype.itemsize, "the uniform grid of the probed cells")
    except SizeError:
        return None
    weights = m ** np.arange(width - 1, -1, -1)
    columns = [[cells.index(c) for c in rs.renamed_probes[q - 1]] for q, _ in events]
    hits = [0] * (len(events) + 1)
    for start in range(0, space, _ENCODE_CHUNK):
        # a block of grid rows: the base-m digits of their numbers
        numbers = np.arange(start, min(start + _ENCODE_CHUNK, space))
        grid = (numbers[:, None] // weights % m).astype(dtype)
        each = [pred(rs.decode_reduced(query, grid[:, cols]))
                for (query, pred), cols in zip(events, columns)]
        for k, hit in enumerate((*each, np.logical_and.reduce(each))):
            hits[k] += int(np.count_nonzero(hit))
    return tuple(Fraction(h, space) for h in hits)


def _product_bound(p1, p2, inner, outer) -> Fraction:
    """(p1 - inner)(p2 - inner) - outer: chain lines 4 and 5, and the Match line 6."""
    return (p1 - inner) * (p2 - inner) - outer


def _final_chain(rs: RestrictedScheme, m: int, eta: Fraction, eta_name: str,
                 x_name: str, events, x_probs, first, tail):
    """Chain lines 0-7 and the six chain checks, shared by both query kinds.

    ``events`` holds the two decoder events as (name, query, predicate); the
    X side reads them as answers named ``x_name``, with probabilities
    ``x_probs`` = (Pr_X[first], Pr_X[second], Pr_X[both]).  ``first`` is the
    name, justification and outcome of line 0's check, ``tail`` the label,
    value and justification of lines 6 and 7.  Line 2 counts both events on the uniform
    grid of the cells either query probes, and line 3's two factors are that grid's
    marginals; line 3 holds when the probe sets are disjoint.
    """
    (a, query_a, pred_a), (b, query_b, pred_b) = events
    px_a, px_b, px_joint = x_probs
    check0, why0, ok0 = first
    (label6, v6, why6), (label7, v7, why7) = tail
    e = eta_name
    disjoint = not set(rs.renamed_probes[query_a - 1]) & set(rs.renamed_probes[query_b - 1])
    # the reduced decoders' events over Y, from the two queries' probed columns alone
    cells = rs.base.encoded()[1]
    ev_a, ev_b = (query_a, pred_a), (query_b, pred_b)
    ey_a, ey_b = (pred(rs.decode_reduced(q, cells[np.ix_(rs.rows, rs.reduced_probes[q - 1])]))
                  for q, pred in (ev_a, ev_b))
    py_a, py_b, py_joint = _event_probs(ey_a, ey_b, np.ones(len(rs.rows), dtype=np.int64))
    pu_a, pu_b, pu_joint = _event_probs_uniform(rs, m, ev_a, ev_b) or (
        # past the budget jointly: each query's own grid may still fit
        *((_event_probs_uniform(rs, m, ev) or (None,))[0] for ev in (ev_a, ev_b)), None)
    v2 = None if pu_joint is None else pu_joint - eta
    v3 = None if pu_a is None or pu_b is None else pu_a * pu_b - eta
    v4 = _product_bound(py_a, py_b, eta, eta)
    v5 = _product_bound(px_a, px_b, eta, eta)
    chain = (
        ChainLine(f"Pr_X[{x_name}_{a} and {x_name}_{b}]", px_joint, None, why0, ok0),
        ChainLine(f"Pr_Y[dec_{a} and dec_{b}]", py_joint, "=",
                  "answers preserved under fixing", py_joint == px_joint),
        ChainLine(f"Pr_U[dec_{a} and dec_{b}] - {e}", v2, ">=",
                  "probed cells jointly near-uniform", None if v2 is None else py_joint >= v2),
        ChainLine(f"Pr_U[dec_{a}] * Pr_U[dec_{b}] - {e}", v3, "=",
                  "probe sets disjoint", None if v3 is None else disjoint),
        ChainLine(f"(Pr_Y[dec_{a}] - {e})(Pr_Y[dec_{b}] - {e}) - {e}", v4, ">=",
                  "near-uniform cells, factor by factor", None if v3 is None else v3 >= v4),
        ChainLine(f"(Pr_X[{x_name}_{a}] - {e})(Pr_X[{x_name}_{b}] - {e}) - {e}", v5, "=",
                  "answers preserved under fixing", v4 == v5),
        ChainLine(label6, v6, ">=", why6, v5 >= v6),
        ChainLine(label7, v7, ">", why7, v6 > v7),
    )
    relations_ok = all(line.ok for line in chain[1:])
    chain_checks = (
        (check0, ok0),
        ("relations", relations_ok),
        ("ends_above_floor", v6 > v7),
        ("probes_disjoint", disjoint),
        ("joint_under_product_bound", px_joint < v5),
        ("contradiction", ok0 and relations_ok),
    )
    return chain, chain_checks


def _walk(scheme: Scheme, kind, stages):
    """Run the stages in order, appending each one's record to ``stages``.  Returns the
    chain lines and checks, or None when the last stage recorded left nothing to go on."""
    sep, rs = _separate_and_fix(scheme, kind, stages)
    v2 = _good_cells(rs, scheme, kind.eta, sep.V, kind.good_cells_head, kind.floors, stages)
    pairs = kind.pair_stage(v2, sep.V, stages)
    if not pairs:
        return None
    # X's rows are inputs of the domain in rank order: distinct and sorted already
    x_dist = Distribution.on_distinct_rows(rs.surviving_bits())
    p, i, j = _entropy_blocks(x_dist, scheme.n, pairs, kind, stages)
    inputs = kind.chain_inputs(x_dist, p, i, j, stages)
    if inputs is None:
        return None
    return _final_chain(rs, scheme.cell_alphabet, kind.eta, kind.eta_name, kind.x_name, *inputs)


def run_pipeline(scheme: Scheme, c) -> PipelineReport:
    """Replay the lower-bound argument of the scheme's query kind against it, stage by
    stage.  Sum takes a rational c in (1, n], Match an integer c; else a ParameterError."""
    kind = _Sum(scheme, c) if scheme.kind == KIND_SUM else _Match(scheme, c)
    stages: list[StageRecord] = []
    chain, chain_checks = _walk(scheme, kind, stages) or ((), ())
    return PipelineReport(
        kind=kind.name,
        scheme_label=scheme.builtin[0] if scheme.builtin else "table",
        n=scheme.n, u=scheme.u, q=scheme.q, cell_alphabet=scheme.cell_alphabet,
        c=kind.c,
        stages=tuple(stages),
        chain=chain,
        chain_checks=chain_checks,
        truncated_at=None if chain else stages[-1].name,
    )
