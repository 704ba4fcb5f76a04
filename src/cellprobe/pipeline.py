"""Adversary pipelines that replay the lower-bound argument on a scheme.

The prefix-sum (Sum) and bracket-matching (Match) bounds share one argument,
and both pipelines walk its shared skeleton:

1. separator: a small blocker set B and queries V whose probes are disjoint
   outside B;
2. cell-fixing: fix the cells of B to their most likely joint value, keeping
   the inputs X that agree with it;
3. good-cells: keep the near-uniform cells of Y = enc(X) and the queries V2
   whose probes stay inside them;
4. the kind's own stages, which pick index pairs from V2 (Sum: stretcher;
   Match: close-pairs);
5. entropy-blocks: cut [1, n] after each pair and choose a high-entropy block;
6. final-chain: eight lines from Pr_X of the joint event down to a floor.
   Lines 0-5 and the chain checks are the same for both kinds; each kind
   names its two events and supplies lines 6-7 and its first check.

Sum also runs entropy-sum between steps 5 and 6.  Every claimed inequality is
measured exactly on the given scheme.  At workbench sizes many asymptotic
guarantees fail; every check is recorded honestly and the run continues
best-effort.  Each step returns one result that carries its own outcome, and
its stage reads that result.  A stage whose step leaves nothing to go on
truncates the report with that stage named: stretcher when the sweep found no
pair, close-pairs when V holds fewer than two queries, and entropy-sum when
the good prefixes carry under 1/4 of the mass, so no threshold exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .brackets import unmatched_close_prob, unmatched_open_prob
from .core import (
    _ENCODE_CHUNK,
    DOMAIN_ALL,
    DOMAIN_BAL,
    KIND_MATCH,
    KIND_SUM,
    RestrictedScheme,
    Scheme,
    redundancy,
    restrict_scheme,
)
from .entropy_sum import entropy_sum_analysis
from .errors import ParameterError, SizeError
from .infotheory import Distribution, columns_tv, good_blocks, good_cells, value_columns
from .separator import _BRACKET_EXPONENT_LIMIT, find_separator, find_separator_brackets, pairwise_disjoint
from .stretcher import find_stretcher
from .textfmt import fmt, fmt_short, machine_value as _mval

__all__ = [
    "ChainLine",
    "ContradictionChain",
    "PipelineReport",
    "StageRecord",
    "contradiction_chain",
    "run_bracket_pipeline",
    "run_pipeline",
    "run_prefix_pipeline",
]

_UNIFORM_SPACE_CAP = 4_000_000


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
        for k, v in self.fields:
            if k == key:
                return v
        raise KeyError(key)


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
class ContradictionChain:
    """Exact evaluation of (p1 - eta)(p2 - eta) - eta against a joint bound."""

    p_joint: Fraction
    p_upper: Fraction
    p_lower: Fraction
    closeness: Fraction
    bound: Fraction
    contradiction: bool


def contradiction_chain(p_joint, p_upper, p_lower, closeness) -> ContradictionChain:
    """Check whether a measured joint probability undercuts the product bound.

    The argument needs Pr[both events] to stay below
    (Pr[first] - closeness) * (Pr[second] - closeness) - closeness; a strict
    shortfall is the contradiction the adversary is after.
    """
    eta = _exact(closeness)
    pj, p1, p2 = _exact(p_joint), _exact(p_upper), _exact(p_lower)
    bound = (p1 - eta) * (p2 - eta) - eta
    return ContradictionChain(pj, p1, p2, eta, bound, pj < bound)


def _exact(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
        for st in self.stages:
            if st.name == name:
                return st
        raise KeyError(name)

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


def _report(kind, scheme, c, stages, chain=(), chain_checks=(), truncated_at=None):
    return PipelineReport(
        kind=kind,
        scheme_label=scheme.builtin[0] if scheme.builtin else "table",
        n=scheme.n,
        u=scheme.u,
        q=scheme.q,
        cell_alphabet=scheme.cell_alphabet,
        c=c,
        stages=tuple(stages),
        chain=tuple(chain),
        chain_checks=tuple(chain_checks),
        truncated_at=truncated_at,
    )


def _separate_and_fix(scheme: Scheme, sep, head, tail, checks, stages) -> RestrictedScheme:
    """Record the separator stage, then fix the blocker cells to their most likely value.

    ``head``, ``tail`` and ``checks`` are the kind's own separator fields and
    guarantee checks; the shared fields go between, the ``disjoint`` check last.
    """
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
    return rs


def _good_cells(rs: RestrictedScheme, scheme: Scheme, eta: Fraction, v_set, head, floors, stages):
    """Keep the near-uniform cells, the queries inside them, and test every pair.

    ``floors`` names the kind's lower bounds on |V2|, each checked as a stage
    check after the shared ones.  Returns V2.
    """
    m = scheme.cell_alphabet
    u_p = rs.u_prime
    y_dist = Distribution.from_rows(rs.cells())
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
    # distinct cells, or not counted there, are counted here, from a copy made on demand
    counted = report.subset_tvs if report else {}
    by_col = None
    max_tv = Fraction(0)
    for i, j in pair_list:
        cols = rs.renamed_probes[i - 1] + rs.renamed_probes[j - 1]
        tv = counted.get(tuple(sorted(cols)))
        if tv is None:
            if by_col is None:
                by_col = value_columns(y_dist.rows, m)
            tv = columns_tv([by_col[c] for c in cols], y_dist.counts, y_dist.denom, m)
        max_tv = max(max_tv, tv)
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


def _entropy_blocks(x_dist: Distribution, n: int, rights, eps):
    """Cut [1, n] after each pair's right end and choose a block.

    The chosen block is the smallest good one if any, else the best-scoring
    one.  Returns its 0-based index, its bounds (lo, hi] and the shared fields
    and checks of the entropy-blocks stage.
    """
    bounds = [0, *rights[:-1], n]
    sizes = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    gb = good_blocks(x_dist, sizes, eps)
    good = [k for k in gb.good if 1 <= k <= len(sizes)]
    k = good[0] - 1 if good else max(range(len(sizes)), key=lambda idx: (gb.scores[idx], -idx))
    fields = (
        ("sizes", sizes),
        ("eps", eps),
        ("scores", gb.scores),
        ("good_blocks", gb.good),
        ("deficiency_bits", gb.deficiency),
        ("chosen_block", k + 1),
    )
    checks = (("good_count", gb.size_bound_ok), ("block_good", bool(good)))
    return k, bounds[k], bounds[k + 1], fields, checks


def _event_probs(ei, ej) -> tuple[Fraction, Fraction, Fraction]:
    """Pr[ei], Pr[ej] and Pr[ei and ej] over the rows of two event columns."""
    total = len(ei)
    return (Fraction(int(ei.sum()), total), Fraction(int(ej.sum()), total),
            Fraction(int((ei & ej).sum()), total))


def _event_probs_y(rs: RestrictedScheme, i: int, j: int, pred_i, pred_j):
    """Joint and marginal event probabilities of the reduced decoders over Y."""
    cells = rs.base.encoded()[1]
    ei, ej = (pred(rs.decode_reduced(query, cells[np.ix_(rs.rows, rs.reduced_probes[query - 1])]))
              for query, pred in ((i, pred_i), (j, pred_j)))
    return _event_probs(ei, ej)


def _event_prob_uniform(rs: RestrictedScheme, query: int, m: int, pred):
    """Probability of a decoder event when probed cells are uniform, over the m^L value grid."""
    width = len(rs.renamed_probes[query - 1])
    space = m ** width
    if space > _UNIFORM_SPACE_CAP:
        return None
    weights = m ** np.arange(width - 1, -1, -1)
    hits = 0
    for start in range(0, space, _ENCODE_CHUNK):
        # a block of grid rows: the base-m digits of their numbers
        grid = np.arange(start, min(start + _ENCODE_CHUNK, space))[:, None] // weights % m
        hits += int(np.count_nonzero(pred(rs.decode_reduced(query, grid))))
    return Fraction(hits, space)


def _final_chain(rs: RestrictedScheme, m: int, eta: Fraction, eta_name: str,
                 x_name: str, events, x_probs, first, tail):
    """Chain lines 0-7 and the six chain checks, shared by both query kinds.

    ``events`` holds the two decoder events as (name, query, predicate); the
    X side reads them as answers named ``x_name``, with probabilities
    ``x_probs`` = (Pr_X[first], Pr_X[second], Pr_X[both]).  ``first`` is the
    name, justification and outcome of line 0's check, ``tail`` the label,
    value and justification of lines 6 and 7.
    """
    (a, query_a, pred_a), (b, query_b, pred_b) = events
    px_a, px_b, px_joint = x_probs
    check0, why0, ok0 = first
    (label6, v6, why6), (label7, v7, why7) = tail
    e = eta_name
    py_a, py_b, py_joint = _event_probs_y(rs, query_a, query_b, pred_a, pred_b)
    pu_a = _event_prob_uniform(rs, query_a, m, pred_a)
    pu_b = _event_prob_uniform(rs, query_b, m, pred_b)
    v2 = v3 = None if pu_a is None or pu_b is None else pu_a * pu_b - eta
    v4 = (py_a - eta) * (py_b - eta) - eta
    cc = contradiction_chain(px_joint, px_a, px_b, eta)
    chain = (
        ChainLine(f"Pr_X[{x_name}_{a} and {x_name}_{b}]", px_joint, None, why0, ok0),
        ChainLine(f"Pr_Y[dec_{a} and dec_{b}]", py_joint, "=",
                  "answers preserved under fixing", py_joint == px_joint),
        ChainLine(f"Pr_U[dec_{a} and dec_{b}] - {e}", v2, ">=",
                  "probed cells jointly near-uniform", None if v2 is None else py_joint >= v2),
        ChainLine(f"Pr_U[dec_{a}] * Pr_U[dec_{b}] - {e}", v3, "=",
                  "probe sets disjoint", None if v3 is None else v2 == v3),
        ChainLine(f"(Pr_Y[dec_{a}] - {e})(Pr_Y[dec_{b}] - {e}) - {e}", v4, ">=",
                  "near-uniform cells, factor by factor", None if v3 is None else v3 >= v4),
        ChainLine(f"(Pr_X[{x_name}_{a}] - {e})(Pr_X[{x_name}_{b}] - {e}) - {e}", cc.bound, "=",
                  "answers preserved under fixing", v4 == cc.bound),
        ChainLine(label6, v6, ">=", why6, cc.bound >= v6),
        ChainLine(label7, v7, ">", why7, v6 > v7),
    )
    relations_ok = all(line.ok for line in chain[1:])
    probes_a, probes_b = rs.renamed_probes[query_a - 1], rs.renamed_probes[query_b - 1]
    chain_checks = (
        (check0, ok0),
        ("relations", relations_ok),
        ("ends_above_floor", v6 > v7),
        ("probes_disjoint", not set(probes_a) & set(probes_b)),
        ("joint_under_product_bound", cc.contradiction),
        ("contradiction", ok0 and relations_ok),
    )
    return chain, chain_checks


def run_prefix_pipeline(scheme: Scheme, c) -> PipelineReport:
    """Replay the prefix-sum argument against a Sum scheme, stage by stage."""
    if scheme.kind != KIND_SUM or scheme.domain != DOMAIN_ALL:
        raise ParameterError("the prefix pipeline needs a Sum scheme over all bitstrings")
    n = scheme.n
    if n < 2:
        raise ParameterError("the prefix pipeline needs n >= 2")
    # decided on the exact Fraction, before any float or power of c is formed
    cf = _exact(c)
    if not 1 < cf <= n:
        raise ParameterError(f"c must exceed 1 and be at most n = {n}, got {fmt_short(cf)}")
    eta = 1 / cf
    stages: list[StageRecord] = []

    lg = math.log2(n)
    try:
        gap = Fraction(lg) ** int(cf) if cf.denominator == 1 else Fraction(lg ** float(cf))
    except OverflowError:
        raise ParameterError(f"(lg n)^c overflows a float for c = {fmt_short(cf)}") from None
    sep = find_separator(scheme.probes, gap)
    rs = _separate_and_fix(scheme, sep, (("g", gap), ("k0", sep.k0)), (), sep.checks, stages)

    floors = (
        ("v2_half", Fraction(sep.w, 2)),
        ("v2_redundancy", sep.w - 32 * scheme.q * redundancy(scheme) * float(cf) ** 2),
    )
    v2 = _good_cells(rs, scheme, eta, sep.V, (), floors, stages)

    st = find_stretcher(sorted(v2), n, c)
    pairs = st.pairs
    stages.append(StageRecord(
        "stretcher",
        (("t", st.t), ("w", st.w), ("w_prime", st.w_prime), ("v_prime", st.v_prime),
         ("guarantee", st.guarantee), ("stuck_at", st.stuck_at), ("stuck_window", st.window)),
        (("pair_rule", all(p.satisfies(c) for p in pairs)), ("w_prime_floor", st.guarantee_ok),
         ("sweep_completed", st.stuck_at is None)),
    ))
    if not pairs:
        return _report("prefix", scheme, c, stages, truncated_at="stretcher")

    x_dist = Distribution.from_rows(rs.surviving_bits())
    k, p_idx, _, fields, checks = _entropy_blocks(x_dist, n, [p.right for p in pairs], eta)
    i_idx, j_idx = pairs[k].left, pairs[k].right
    stages.append(StageRecord(
        "entropy-blocks", fields + (("p", p_idx), ("i", i_idx), ("j", j_idx)), checks))

    wit = entropy_sum_analysis(x_dist, p_idx, i_idx, j_idx, c)
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
        return _report("prefix", scheme, c, stages, truncated_at="entropy-sum")

    # answers are integers, so v >= s and v < s' hold exactly when they hold at the
    # witness's integer cuts, ceil s and ceil s'
    s, sp = wit.cuts[:2]
    chain, chain_checks = _final_chain(
        rs, scheme.cell_alphabet, eta, "1/c", "sum",
        (("j >= s", j_idx, lambda v: v >= s), ("i < s'", i_idx, lambda v: v < sp)),
        (wit.P_upper, wit.P_lower, wit.P_joint),
        ("joint_bound", "joint tail bound at the threshold", wit.holds_joint),
        (("(1/10 - 1/c)^2 - 1/c", (Fraction(1, 10) - eta) ** 2 - eta,
          "tail bounds at the chosen threshold"),
         ("1/200", Fraction(1, 200), "parameter floor")),
    )
    return _report("prefix", scheme, c, stages, chain, chain_checks)


def run_bracket_pipeline(scheme: Scheme, c: int) -> PipelineReport:
    """Replay the bracket-matching argument against a Match scheme."""
    if scheme.kind != KIND_MATCH or scheme.domain != DOMAIN_BAL:
        raise ParameterError("the bracket pipeline needs a Match scheme over balanced strings")
    n = scheme.n
    if n < 4 or n % 2:
        raise ParameterError("the bracket pipeline needs even n >= 4")
    cf = _exact(c)
    if cf.denominator != 1:
        raise ParameterError(f"c must be an integer, got {fmt_short(cf)}")
    c = int(cf)
    if c >= 4 and (2 * c) ** scheme.q > _BRACKET_EXPONENT_LIMIT:
        raise ParameterError(f"c = {fmt_short(cf)} puts (2c)^q past {_BRACKET_EXPONENT_LIMIT}")
    stages: list[StageRecord] = []

    sep = find_separator_brackets(scheme.probes, c, require_preconditions=False)
    a = sep.a
    rs = _separate_and_fix(scheme, sep, (("a", a), ("b", sep.b)),
                           (("size_floor_ok", sep.size_floor_ok),),
                           (*sep.checks, ("v_floor", sep.v_floor)), stages)

    lg = math.log2(n)
    try:
        d_param = math.ldexp(lg ** a, 4)  # 16 (lg n)^a exactly; each step raises past the range
    except OverflowError:
        raise ParameterError(
            f"d = 16 (lg n)^a is past the float range for c = {c} (a = {a})") from None
    eta = Fraction(1) / (Fraction(c) * Fraction(d_param))
    sqrt_d = math.sqrt(d_param)
    v2_floor = n / (2.0 * lg ** a)
    v2 = _good_cells(rs, scheme, eta, sep.V, (("d", d_param),), (("v2_floor", v2_floor),), stages)

    v2_sorted = sorted(v2)
    raw_pairs = [(v2_sorted[2 * t], v2_sorted[2 * t + 1])
                 for t in range(len(v2_sorted) // 2)]
    kept = [(i, j) for i, j in raw_pairs if j - i < d_param]
    v3_floor = n / (16.0 * lg ** a)
    stages.append(StageRecord(
        "close-pairs",
        (
            ("candidate_pairs", len(raw_pairs)),
            ("kept_pairs", len(kept)),
            ("v3", tuple(x for pr in kept for x in pr)),
        ),
        (
            ("v3_floor", len(kept) >= v3_floor),
        ),
    ))

    if kept:
        block_pairs = kept
        fallback = "close-pairs"
    elif raw_pairs:
        block_pairs = [raw_pairs[0]]
        fallback = "v2-consecutive"
    elif len(sep.V) >= 2:
        vs = sorted(sep.V)
        best = min(((vs[t], vs[t + 1]) for t in range(len(vs) - 1)),
                   key=lambda pr: (pr[1] - pr[0], pr[0]))
        block_pairs = [best]
        fallback = "closest-in-v"
    else:
        return _report("brackets", scheme, c, stages, truncated_at="close-pairs")

    eps = Fraction(1) / (16 * Fraction(c) ** 2 * Fraction(d_param))
    x_bits = rs.surviving_bits()
    x_dist = Distribution.from_rows(x_bits)
    k, block_lo, block_hi, fields, checks = _entropy_blocks(
        x_dist, n, [j for _, j in block_pairs], eps)
    i_idx, j_idx = block_pairs[k]
    tv_selected = columns_tv(x_dist.rows.T[block_lo:block_hi], x_dist.counts, x_dist.denom, 2)
    closeness_bound = Fraction(1) / (Fraction(c) * Fraction(sqrt_d))
    stages.append(StageRecord(
        "entropy-blocks",
        fields + (
            ("fallback", fallback),
            ("i", i_idx),
            ("j", j_idx),
            ("block_tv", tv_selected),
            ("closeness_bound", closeness_bound),
        ),
        checks + (
            ("block_close", tv_selected <= closeness_bound),
            ("pairs_direct", fallback == "close-pairs"),
        ),
    ))

    matches = scheme.oracle_rows(x_bits)
    x_probs = _event_probs(matches[:, i_idx - 1] > j_idx, matches[:, j_idx - 1] < i_idx)
    window = j_idx - i_idx + 1
    eta2 = Fraction(2.0 / (c * sqrt_d))
    v6 = (unmatched_open_prob(window) - eta2) * (unmatched_close_prob(window) - eta2) - eta
    chain, chain_checks = _final_chain(
        rs, scheme.cell_alphabet, eta, "1/(cd)", "match",
        (("i > j", i_idx, lambda v: v > j_idx), ("j < i", j_idx, lambda v: v < i_idx)),
        x_probs,
        ("left_side_zero", "partners cannot cross", x_probs[2] == 0),
        (("(Pr_full[match_i > j] - 2/(c sqrt d))(Pr_full[match_j < i] - 2/(c sqrt d)) - 1/(cd)",
          v6, "block close to uniform window bits"),
         ("0", Fraction(0), "unmatched-window probabilities")),
    )
    return _report("brackets", scheme, c, stages, chain, chain_checks)


def run_pipeline(scheme: Scheme, c) -> PipelineReport:
    """Dispatch on the scheme's query kind."""
    if scheme.kind == KIND_SUM:
        return run_prefix_pipeline(scheme, c)
    return run_bracket_pipeline(scheme, c)
