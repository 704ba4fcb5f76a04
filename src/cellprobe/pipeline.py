"""Adversary pipelines that replay the lower-bound argument on a scheme.

Each pipeline walks the constructive steps in order (separator, cell fixing,
near-uniform cells, index selection, entropy blocks, final chain) and
measures every claimed inequality exactly on the given scheme.  At workbench
sizes many asymptotic guarantees fail; every check is recorded honestly and
the run continues best-effort.  A stage that receives genuinely empty input
truncates the report with that stage named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .brackets import unmatched_close_prob, unmatched_open_prob
from .core import (
    DOMAIN_ALL,
    DOMAIN_BAL,
    KIND_MATCH,
    KIND_SUM,
    RestrictedScheme,
    Scheme,
    map_rows,
    redundancy,
    restrict_scheme,
)
from .entropy_sum import entropy_sum_analysis
from .errors import ParameterError, SizeError
from .infotheory import CountMatrix, good_blocks, good_cells
from .separator import find_separator, find_separator_brackets, pairwise_disjoint
from .stretcher import StretcherWindowError, find_stretcher
from .textfmt import fmt, machine_value as _mval

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
_PAIR_CAP = 500
_PRESERVE_CAP = 50_000


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

    def has_stage(self, name: str) -> bool:
        return any(st.name == name for st in self.stages)

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


def _inverse(c) -> Fraction:
    cf = _exact(c)
    if cf <= 0:
        raise ParameterError(f"c must be positive, got {c}")
    return 1 / cf


def _fixing_stage(scheme: Scheme, b_cells) -> tuple[StageRecord, RestrictedScheme]:
    """Fix the separator cells to their most likely joint value."""
    rs = restrict_scheme(scheme, b_cells)
    survivors = len(rs.rows)
    dom = scheme.domain_size()
    m = scheme.cell_alphabet
    pigeon = survivors * (m ** len(b_cells)) >= dom
    deficiency = math.log2(dom) - math.log2(survivors)
    sample = min(survivors, max(1, _PRESERVE_CAP // max(1, scheme.n)))
    preserved = rs.preserves_answers(sample)
    record = StageRecord(
        "cell-fixing",
        (
            ("fixed_cells", tuple(b_cells)),
            ("fixed_values", rs.fixed_values),
            ("survivors", survivors),
            ("deficiency_bits", deficiency),
            ("u_prime", rs.u_prime),
            ("preserved_inputs_checked", sample),
            ("preservation_exhaustive", sample == survivors),
        ),
        (
            ("pigeonhole", pigeon),
            ("answers_preserved", preserved),
        ),
    )
    return record, rs


def _good_cells_core(rs: RestrictedScheme, scheme: Scheme, eta: Fraction, v_set):
    """Shared near-uniform-cells work: filter cells, project queries, pair TVs."""
    m = scheme.cell_alphabet
    u_p = rs.u_prime
    y_dist = CountMatrix.from_rows(rs.cells())
    subset_size = min(2 * scheme.q, u_p)
    report = None
    skipped = False
    if u_p == 0 or subset_size == 0:
        good0: frozenset[int] = frozenset(range(u_p))
    else:
        try:
            report = good_cells(y_dist, subset_size, eta, m)
            good0 = frozenset(k - 1 for k in report.good)
        except SizeError:
            skipped = True
            good0 = frozenset(range(u_p))
    v2 = tuple(v for v in v_set if set(rs.renamed_probes[v - 1]) <= good0)
    pair_list = list(combinations(v2, 2))
    sampled = len(pair_list) > _PAIR_CAP
    pair_list = pair_list[:_PAIR_CAP]
    max_tv = Fraction(0)
    pairs_ok = True
    for i, j in pair_list:
        cols = rs.renamed_probes[i - 1] + rs.renamed_probes[j - 1]
        tv = y_dist.tv_uniform(cols, m) if cols else Fraction(0)
        if tv > max_tv:
            max_tv = tv
        if tv > eta:
            pairs_ok = False
    fields = [
        ("eta", eta),
        ("subset_size", subset_size),
        ("cells_kept", tuple(sorted(k + 1 for k in good0))),
        ("deficiency_bits", report.deficiency if report else 0.0),
        ("size_bound", report.size_bound if report else float(u_p)),
        ("subsets_skipped", skipped),
        ("v2", v2),
        ("pairs_tested", len(pair_list)),
        ("pairs_sampled", sampled),
        ("max_pair_tv", max_tv),
    ]
    checks = [
        ("kept_count", (report.size_bound_ok if report else True)),
        ("pair_tv", pairs_ok),
    ]
    return fields, checks, v2


def _event_probs(ei, ej) -> tuple[Fraction, Fraction, Fraction]:
    """Pr[ei], Pr[ej] and Pr[ei and ej] over the rows of two event columns."""
    total = len(ei)
    return (Fraction(int(ei.sum()), total), Fraction(int(ej.sum()), total),
            Fraction(int((ei & ej).sum()), total))


def _event_probs_y(rs: RestrictedScheme, i: int, j: int, pred_i, pred_j):
    """Joint and marginal event probabilities of the reduced decoders over Y."""
    y = rs.cells()

    def events(query, pred):
        return map_rows(lambda v: bool(pred(rs.decode_reduced(query, v))),
                        y[:, list(rs.renamed_probes[query - 1])]).astype(bool)

    return _event_probs(events(i, pred_i), events(j, pred_j))


def _event_prob_uniform(rs: RestrictedScheme, query: int, m: int, pred):
    """Probability of a decoder event when probed cells are uniform."""
    probe = rs.renamed_probes[query - 1]
    space = m ** len(probe)
    if space > _UNIFORM_SPACE_CAP:
        return None
    hits = sum(1 for vals in product(range(m), repeat=len(probe))
               if pred(rs.decode_reduced(query, vals)))
    return Fraction(hits, space)


def _pick_block(report, count: int) -> tuple[int, bool]:
    """Smallest good block if any, else the best-scoring one (0-based)."""
    good = [k for k in report.good if 1 <= k <= count]
    if good:
        return good[0] - 1, True
    best = max(range(count), key=lambda idx: (report.scores[idx], -idx))
    return best, False


def _truncated(kind, scheme, c, stages, stage_name) -> PipelineReport:
    return PipelineReport(
        kind=kind,
        scheme_label=scheme.builtin[0] if scheme.builtin else "table",
        n=scheme.n,
        u=scheme.u,
        q=scheme.q,
        cell_alphabet=scheme.cell_alphabet,
        c=c,
        stages=tuple(stages),
        chain=(),
        chain_checks=(),
        truncated_at=stage_name,
    )


def _complete(kind, scheme, c, stages, chain, chain_checks) -> PipelineReport:
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
        truncated_at=None,
    )


def run_prefix_pipeline(scheme: Scheme, c) -> PipelineReport:
    """Replay the prefix-sum argument against a Sum scheme, stage by stage."""
    if scheme.kind != KIND_SUM or scheme.domain != DOMAIN_ALL:
        raise ParameterError("the prefix pipeline needs a Sum scheme over all bitstrings")
    n = scheme.n
    if n < 2:
        raise ParameterError("the prefix pipeline needs n >= 2")
    if float(c) <= 1:
        raise ParameterError(f"c must exceed 1, got {c}")
    eta = _inverse(c)
    m = scheme.cell_alphabet
    stages: list[StageRecord] = []

    lg = math.log2(n)
    if float(c) == int(float(c)):
        gap = Fraction(lg) ** int(float(c))
    else:
        gap = Fraction(lg ** float(c))
    sep = find_separator([set(p) for p in scheme.probes], gap)
    b_sorted = tuple(sorted(sep.B))
    v_sets = [set(scheme.probes[v - 1]) - sep.B for v in sep.V]
    stages.append(StageRecord(
        "separator",
        (
            ("g", gap),
            ("k0", sep.k0),
            ("stages_run", sep.stages_run),
            ("w", sep.w),
            ("v", sep.V),
            ("b_cells", tuple(b_sorted)),
        ),
        (
            ("w_floor", Fraction(sep.w) >= sep.k0),
            ("b_small", Fraction(len(sep.B)) <= Fraction(sep.w) / sep.gap),
            ("disjoint", pairwise_disjoint(v_sets)),
        ),
    ))

    fixing, rs = _fixing_stage(scheme, b_sorted)
    stages.append(fixing)

    gc_fields, gc_checks, v2 = _good_cells_core(rs, scheme, eta, sep.V)
    r = redundancy(scheme)
    gc_checks = gc_checks + [
        ("v2_half", 2 * len(v2) >= sep.w),
        ("v2_redundancy", len(v2) >= sep.w - 32 * scheme.q * r * float(c) ** 2),
    ]
    stages.append(StageRecord("good-cells", tuple(gc_fields), tuple(gc_checks)))

    v2_sorted = tuple(sorted(v2))
    stuck_at = None
    stuck_window: tuple[int, ...] | None = None
    if v2_sorted:
        try:
            st = find_stretcher(v2_sorted, n, c)
            pairs = st.pairs
            t_len, w_in = st.t, st.w
            guarantee, guarantee_ok = st.guarantee, st.guarantee_ok
        except StretcherWindowError as err:
            pairs = tuple(err.pairs_so_far)
            t_len = math.floor(float(c) * lg)
            w_in = len(v2_sorted)
            guarantee = 2 * math.floor(w_in / (float(c) * lg))
            guarantee_ok = 2 * len(pairs) >= guarantee
            stuck_at = err.s
            stuck_window = tuple(err.window)
    else:
        pairs = ()
        t_len = math.floor(float(c) * lg)
        w_in = 0
        guarantee = 0
        guarantee_ok = True
    v_prime = tuple(x for p in pairs for x in (p.left, p.right))
    stages.append(StageRecord(
        "stretcher",
        (
            ("t", t_len),
            ("w", w_in),
            ("w_prime", 2 * len(pairs)),
            ("v_prime", v_prime),
            ("guarantee", guarantee),
            ("stuck_at", stuck_at),
            ("stuck_window", stuck_window),
        ),
        (
            ("pair_rule", all(p.satisfies(c) for p in pairs)),
            ("w_prime_floor", guarantee_ok),
            ("sweep_completed", stuck_at is None),
        ),
    ))
    if not pairs:
        return _truncated("prefix", scheme, c, stages, "stretcher")

    sizes = [p.right - p.prev for p in pairs]
    sizes[-1] = n - pairs[-1].prev
    x_dist = CountMatrix.from_rows(rs.surviving_bits())
    gb = good_blocks(x_dist, sizes, eta)
    k, block_good = _pick_block(gb, len(pairs))
    p_idx, i_idx, j_idx = pairs[k].prev, pairs[k].left, pairs[k].right
    stages.append(StageRecord(
        "entropy-blocks",
        (
            ("sizes", tuple(sizes)),
            ("eps", eta),
            ("scores", gb.scores),
            ("good_blocks", gb.good),
            ("deficiency_bits", gb.deficiency),
            ("chosen_block", k + 1),
            ("p", p_idx),
            ("i", i_idx),
            ("j", j_idx),
        ),
        (
            ("good_count", gb.size_bound_ok),
            ("block_good", block_good),
        ),
    ))

    wit = entropy_sum_analysis(x_dist, p_idx, i_idx, j_idx, c, require_hypothesis=False)
    prefix_rep = wit.prefix_report
    stages.append(StageRecord(
        "entropy-sum",
        (
            ("ell", wit.ell),
            ("d", wit.d),
            ("t", wit.t),
            ("s", wit.s),
            ("s_prime", wit.s_prime),
            ("s_exact", wit.s_exact),
            ("a_size", wit.a_size),
            ("pr_A", wit.pr_A),
            ("P_upper", wit.P_upper),
            ("P_lower", wit.P_lower),
            ("P_lower_leq", wit.P_lower_leq),
            ("P_joint", wit.P_joint),
            ("block_bound", wit.block_bound),
        ),
        (
            ("hypothesis", prefix_rep.hypothesis_ok if prefix_rep else True),
            ("ratio", wit.ratio_ok),
            ("prefix_mass", prefix_rep.claim_half_ok if prefix_rep else True),
            ("upper_tail", wit.holds_upper),
            ("lower_tail", wit.holds_lower),
            ("joint_tail", wit.holds_joint),
        ),
    ))

    s, sp = wit.s, wit.s_prime
    py_i, py_j, py_joint = _event_probs_y(
        rs, i_idx, j_idx, lambda v: v < sp, lambda v: v >= s)
    pu_j = _event_prob_uniform(rs, j_idx, m, lambda v: v >= s)
    pu_i = _event_prob_uniform(rs, i_idx, m, lambda v: v < sp)
    disjoint = not (set(rs.renamed_probes[i_idx - 1]) & set(rs.renamed_probes[j_idx - 1]))
    if pu_i is None or pu_j is None:
        pu_joint = None
    else:
        pu_joint = pu_j * pu_i
    cc = contradiction_chain(wit.P_joint, wit.P_upper, wit.P_lower, eta)
    v0 = wit.P_joint
    v1 = py_joint
    v2_line = None if pu_joint is None else pu_joint - eta
    v3 = None if pu_joint is None else pu_j * pu_i - eta
    v4 = (py_j - eta) * (py_i - eta) - eta
    v5 = cc.bound
    v6 = (Fraction(1, 10) - eta) ** 2 - eta
    v7 = Fraction(1, 200)
    chain = [
        ChainLine("Pr_X[sum_j >= s and sum_i < s']", v0, None,
                  "joint tail bound at the threshold", wit.holds_joint),
        ChainLine("Pr_Y[dec_j >= s and dec_i < s']", v1, "=",
                  "answers preserved under fixing", v1 == v0),
        ChainLine("Pr_U[dec_j >= s and dec_i < s'] - 1/c", v2_line, ">=",
                  "probed cells jointly near-uniform",
                  None if v2_line is None else v1 >= v2_line),
        ChainLine("Pr_U[dec_j >= s] * Pr_U[dec_i < s'] - 1/c", v3, "=",
                  "probe sets disjoint",
                  None if v3 is None or v2_line is None else v2_line == v3),
        ChainLine("(Pr_Y[dec_j >= s] - 1/c)(Pr_Y[dec_i < s'] - 1/c) - 1/c", v4, ">=",
                  "near-uniform cells, factor by factor",
                  None if v3 is None else v3 >= v4),
        ChainLine("(Pr_X[sum_j >= s] - 1/c)(Pr_X[sum_i < s'] - 1/c) - 1/c", v5, "=",
                  "answers preserved under fixing", v4 == v5),
        ChainLine("(1/10 - 1/c)^2 - 1/c", v6, ">=",
                  "tail bounds at the chosen threshold", v5 >= v6),
        ChainLine("1/200", v7, ">", "parameter floor", v6 > v7),
    ]
    relations_ok = all(line.ok for line in chain[1:])
    chain_checks = [
        ("joint_bound", wit.holds_joint),
        ("relations", relations_ok),
        ("ends_above_floor", v6 > v7),
        ("probes_disjoint", disjoint),
        ("joint_under_product_bound", cc.contradiction),
        ("contradiction", wit.holds_joint and relations_ok),
    ]
    return _complete("prefix", scheme, c, stages, chain, chain_checks)


def _log_count_floor(count: int, n: int, exponent, lg_l: float) -> bool:
    """count >= n / (lg n)^exponent, compared in log space."""
    if count <= 0:
        return False
    return math.log2(count) + float(exponent) * lg_l >= math.log2(n) - 1e-12


def run_bracket_pipeline(scheme: Scheme, c: int) -> PipelineReport:
    """Replay the bracket-matching argument against a Match scheme."""
    if scheme.kind != KIND_MATCH or scheme.domain != DOMAIN_BAL:
        raise ParameterError("the bracket pipeline needs a Match scheme over balanced strings")
    n = scheme.n
    if n < 4 or n % 2:
        raise ParameterError("the bracket pipeline needs even n >= 4")
    c = int(c)
    if c < 4:
        raise ParameterError(f"c must be an integer >= 4, got {c}")
    m = scheme.cell_alphabet
    stages: list[StageRecord] = []

    sep = find_separator_brackets([set(p) for p in scheme.probes], c,
                                  require_preconditions=False)
    a, b = sep.a, sep.b
    lg = math.log2(n)
    lg_l = math.log2(lg)
    b_sorted = tuple(sorted(sep.B))
    v_sets = [set(scheme.probes[v - 1]) - sep.B for v in sep.V]
    stages.append(StageRecord(
        "separator",
        (
            ("a", a),
            ("b", b),
            ("stages_run", sep.stages_run),
            ("w", sep.w),
            ("v", sep.V),
            ("b_cells", tuple(b_sorted)),
            ("size_floor_ok", sep.size_floor_ok),
        ),
        (
            ("b_between", c * a <= b <= c * (2 * c) ** a),
            ("b_small", sep.b_size_ok),
            ("v_floor", _log_count_floor(sep.w, n, a, lg_l)),
            ("disjoint", pairwise_disjoint(v_sets)),
        ),
    ))

    fixing, rs = _fixing_stage(scheme, b_sorted)
    stages.append(fixing)

    try:
        d_param = 16.0 * lg ** a
    except OverflowError:
        d_param = math.inf
    eta = Fraction(1) / (Fraction(c) * Fraction(d_param))
    sqrt_d = math.sqrt(d_param)
    gc_fields, gc_checks, v2 = _good_cells_core(rs, scheme, eta, sep.V)
    gc_fields = [("d", d_param)] + gc_fields
    try:
        v2_floor = n / (2.0 * lg ** a)
    except OverflowError:
        v2_floor = 0.0
    gc_checks = gc_checks + [("v2_floor", len(v2) >= v2_floor)]
    stages.append(StageRecord("good-cells", tuple(gc_fields), tuple(gc_checks)))

    v2_sorted = sorted(v2)
    raw_pairs = [(v2_sorted[2 * t], v2_sorted[2 * t + 1])
                 for t in range(len(v2_sorted) // 2)]
    kept = [(i, j) for i, j in raw_pairs if j - i < d_param]
    v3 = tuple(x for pr in kept for x in pr)
    try:
        v3_floor = n / (16.0 * lg ** a)
    except OverflowError:
        v3_floor = 0.0
    stages.append(StageRecord(
        "close-pairs",
        (
            ("candidate_pairs", len(raw_pairs)),
            ("kept_pairs", len(kept)),
            ("v3", v3),
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
        return _truncated("brackets", scheme, c, stages, "close-pairs")

    bounds = [0] + [j for _, j in block_pairs]
    sizes = [bounds[t + 1] - bounds[t] for t in range(len(block_pairs))]
    sizes[-1] = n - bounds[-2]
    eps = Fraction(1) / (16 * Fraction(c) ** 2 * Fraction(d_param))
    x_bits = rs.surviving_bits()
    x_dist = CountMatrix.from_rows(x_bits)
    gb = good_blocks(x_dist, sizes, eps)
    k, block_good = _pick_block(gb, len(block_pairs))
    i_idx, j_idx = block_pairs[k]
    block_lo = bounds[k]
    block_hi = n if k == len(block_pairs) - 1 else bounds[k + 1]
    tv_selected = x_dist.tv_uniform(tuple(range(block_lo, block_hi)), 2)
    closeness_bound = Fraction(1) / (Fraction(c) * Fraction(sqrt_d))
    stages.append(StageRecord(
        "entropy-blocks",
        (
            ("sizes", tuple(sizes)),
            ("eps", eps),
            ("scores", gb.scores),
            ("good_blocks", gb.good),
            ("deficiency_bits", gb.deficiency),
            ("chosen_block", k + 1),
            ("fallback", fallback),
            ("i", i_idx),
            ("j", j_idx),
            ("block_tv", tv_selected),
            ("closeness_bound", closeness_bound),
        ),
        (
            ("good_count", gb.size_bound_ok),
            ("block_good", block_good),
            ("block_close", tv_selected <= closeness_bound),
            ("pairs_direct", fallback == "close-pairs"),
        ),
    ))

    matches = scheme.oracle_rows(x_bits)
    px_open, px_close, px_joint = _event_probs(
        matches[:, i_idx - 1] > j_idx, matches[:, j_idx - 1] < i_idx)
    py_open, py_close, py_joint = _event_probs_y(
        rs, i_idx, j_idx, lambda v: v > j_idx, lambda v: v < i_idx)
    pu_open = _event_prob_uniform(rs, i_idx, m, lambda v: v > j_idx)
    pu_close = _event_prob_uniform(rs, j_idx, m, lambda v: v < i_idx)
    disjoint = not (set(rs.renamed_probes[i_idx - 1]) & set(rs.renamed_probes[j_idx - 1]))
    pu_joint = None if pu_open is None or pu_close is None else pu_open * pu_close
    window = j_idx - i_idx + 1
    w_open = unmatched_open_prob(window)
    w_close = unmatched_close_prob(window)
    eta2 = Fraction(2.0 / (c * sqrt_d))
    cc = contradiction_chain(px_joint, px_open, px_close, eta)
    v0 = px_joint
    v1 = py_joint
    v2_line = None if pu_joint is None else pu_joint - eta
    v3 = None if pu_joint is None else pu_open * pu_close - eta
    v4 = (py_open - eta) * (py_close - eta) - eta
    v5 = cc.bound
    v6 = (w_open - eta2) * (w_close - eta2) - eta
    v7 = Fraction(0)
    chain = [
        ChainLine("Pr_X[match_i > j and match_j < i]", v0, None,
                  "partners cannot cross", v0 == 0),
        ChainLine("Pr_Y[dec_i > j and dec_j < i]", v1, "=",
                  "answers preserved under fixing", v1 == v0),
        ChainLine("Pr_U[dec_i > j and dec_j < i] - 1/(cd)", v2_line, ">=",
                  "probed cells jointly near-uniform",
                  None if v2_line is None else v1 >= v2_line),
        ChainLine("Pr_U[dec_i > j] * Pr_U[dec_j < i] - 1/(cd)", v3, "=",
                  "probe sets disjoint",
                  None if v3 is None or v2_line is None else v2_line == v3),
        ChainLine("(Pr_Y[dec_i > j] - 1/(cd))(Pr_Y[dec_j < i] - 1/(cd)) - 1/(cd)",
                  v4, ">=", "near-uniform cells, factor by factor",
                  None if v3 is None else v3 >= v4),
        ChainLine("(Pr_X[match_i > j] - 1/(cd))(Pr_X[match_j < i] - 1/(cd)) - 1/(cd)",
                  v5, "=", "answers preserved under fixing", v4 == v5),
        ChainLine("(Pr_full[match_i > j] - 2/(c sqrt d))"
                  "(Pr_full[match_j < i] - 2/(c sqrt d)) - 1/(cd)",
                  v6, ">=", "block close to uniform window bits", v5 >= v6),
        ChainLine("0", v7, ">", "unmatched-window probabilities", v6 > v7),
    ]
    relations_ok = all(line.ok for line in chain[1:])
    chain_checks = [
        ("left_side_zero", v0 == 0),
        ("relations", relations_ok),
        ("ends_above_floor", v6 > v7),
        ("probes_disjoint", disjoint),
        ("joint_under_product_bound", cc.contradiction),
        ("contradiction", v0 == 0 and relations_ok),
    ]
    return _complete("brackets", scheme, c, stages, chain, chain_checks)


def run_pipeline(scheme: Scheme, c) -> PipelineReport:
    """Dispatch on the scheme's query kind."""
    if scheme.kind == KIND_SUM:
        return run_prefix_pipeline(scheme, c)
    return run_bracket_pipeline(scheme, c)
