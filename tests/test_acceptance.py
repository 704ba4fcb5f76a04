"""Acceptance suite: twelve checkable guarantees, one summary line each.

Each test prints exactly one ``criterion NN [label]: PASS/FAIL`` line; a FAIL
line re-raises the underlying assertion so pytest reports the detail.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import reference
from cellprobe import (
    Distribution,
    binomial_tail,
    catalan_count,
    conditional_entropy,
    entropy,
    entropy_sum_analysis_uniform,
    find_separator,
    find_separator_brackets,
    find_stretcher,
    find_threshold,
    good_blocks,
    good_prefix_set,
    restrict_scheme,
    run_pipeline,
    stretch_term,
    tv_from_uniform,
    unmatched_close_prob,
    unmatched_open_prob,
    verify_scheme,
)
from cellprobe.core import DOMAIN_ALL, KIND_SUM, Scheme
from cellprobe.schemes import (
    build_bracket_table,
    build_precomputed_sums,
    build_raw_identity,
    build_two_level_rank,
)


@contextmanager
def _criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


def test_criterion_01_reference_schemes_verify_exhaustively():
    with _criterion(1, "reference schemes verify exhaustively"):
        start = time.monotonic()
        reports = [
            verify_scheme(build_precomputed_sums(16, 17)),
            verify_scheme(build_two_level_rank(16, 4, 8, 17)),
            verify_scheme(build_raw_identity(16, 16)),
            verify_scheme(build_bracket_table(16)),
        ]
        elapsed = time.monotonic() - start
        assert all(r.ok and r.failures == 0 for r in reports)
        assert all(r.inputs_checked == 65536 for r in reports[:3])
        assert reports[3].inputs_checked == 1430
        assert elapsed < 10.0


def test_criterion_02_separator_guarantees():
    with _criterion(2, "separator floor, blocked-set size, disjointness"):
        rng = random.Random(20260825)
        start = time.monotonic()
        trials = 0
        while trials < 200:
            n = rng.choice((64, 256, 1024))
            q_max = rng.randint(1, 4)
            g = rng.choice((2, 4, 8))
            u = rng.choice((n // 2, n, 2 * n))
            family = [set(rng.sample(range(u), rng.randint(1, q_max)))
                      for _ in range(n)]
            res = find_separator(family, g)
            assert Fraction(res.w) >= Fraction(n, (g * res.q) ** res.q)
            assert len(res.B) * g <= res.w
            total = 0
            union: set = set()
            for v in res.V:
                reduced = family[v - 1] - res.B
                total += len(reduced)
                union |= reduced
            assert len(union) == total
            trials += 1
        assert time.monotonic() - start < 5.0


def test_criterion_03_bracket_separator_schedule():
    with _criterion(3, "bracket separator a/b schedule and exact floors"):
        rng = random.Random(43)
        n = 1 << 16          # the only enumerable size with q <= (lg lg n)/c at c=4
        lg = 16
        for _ in range(100):
            u = rng.choice((256, 1024, 4096))
            family = [{v} for v in rng.choices(range(u), k=n)]
            res = find_separator_brackets(family, 4)
            assert res.precondition_ok  # q = 1 <= (lg lg 2^16)/4
            assert res.c * res.a <= res.b <= res.c * (2 * res.c) ** res.a
            assert Fraction(len(res.B)) <= Fraction(n, lg ** res.b)
            assert Fraction(res.w) >= Fraction(n, lg ** res.a)


def test_criterion_04_stretcher_pairs_and_floor():
    with _criterion(4, "stretcher gap rule and output-size floor"):
        rng = random.Random(97)
        successes = 0
        for _ in range(200):
            c = rng.choice((2, 4))
            n = 2 ** rng.randint(4, 16)
            w = rng.randint(1, min(60, n))
            indices = sorted(rng.sample(range(1, n + 1), w))
            res = find_stretcher(indices, n, c)
            if res.stuck_at is not None:
                assert len(res.window) >= 1   # the result carries the stuck window
                continue
            prev = 0
            for k in range(0, len(res.v_prime), 2):
                left, right = res.v_prime[k], res.v_prime[k + 1]
                assert left - prev >= c * (right - left)
                prev = right
            lg = n.bit_length() - 1
            assert res.w_prime >= 2 * (w // (c * lg))
            assert res.guarantee_ok
            successes += 1
        assert successes > 0


def test_criterion_05_chain_rule_conditioning_and_tv_bound():
    with _criterion(5, "chain rule, conditioning, entropy-to-TV bound"):
        rng = random.Random(5)
        for _ in range(500):
            arity = rng.randint(2, 12)
            n_outcomes = rng.randint(2, min(2 ** arity, 64))
            support = set()
            while len(support) < n_outcomes:
                support.add(tuple(rng.randint(0, 1) for _ in range(arity)))
            dist = reference.from_counts(
                {o: rng.randint(1, 9) for o in sorted(support)})
            cut = rng.randint(1, arity - 1)
            front = tuple(range(cut))
            back = tuple(range(cut, arity))
            chained = entropy(dist.marginal(front)) + conditional_entropy(dist, back, front)
            assert abs(entropy(dist) - chained) <= 1e-9
            assert conditional_entropy(dist, back, front) \
                <= entropy(dist.marginal(back)) + 1e-9

        for trial in range(200):
            k = rng.randint(3, 8)
            space = list(product((0, 1), repeat=k))
            if trial % 2:
                miss = rng.randint(0, max(1, len(space) // 8))
                keep = [o for idx, o in enumerate(space)
                        if idx not in set(rng.sample(range(len(space)), miss))]
                dist = Distribution.uniform(keep)
            else:
                dist = reference.from_counts(
                    {o: rng.choice((7, 8, 9)) for o in space})
            alpha = max(0.0, k - entropy(dist)) + 1e-9
            chk = reference.check_high_entropy_uniform(dist, space, alpha)
            assert chk.precondition_ok
            assert chk.holds


def test_criterion_06_good_blocks_deficiency_budget():
    with _criterion(6, "good blocks: deficiency budget, size floor, TV"):
        rng = random.Random(66)
        space = list(product((0, 1), repeat=10))
        for _ in range(100):
            size = rng.choice((64, 128, 256, 512))
            x_set = sorted(rng.sample(space, size))
            cuts = sorted(rng.sample(range(1, 10), rng.randint(1, 4)))
            edges = [0] + cuts + [10]
            sizes = tuple(b - a for a, b in zip(edges, edges[1:]))
            eps = rng.choice((Fraction(1, 64), Fraction(1, 16),
                              Fraction(1, 4), Fraction(1, 2)))
            rep = good_blocks(x_set, sizes, eps)
            a = 10 - math.log2(size)
            assert abs(rep.deficiency - a) <= 1e-9
            assert abs(sum(s - h for s, h in zip(sizes, rep.scores)) - a) <= 1e-9
            assert len(rep.good) >= len(sizes) - a / float(eps) - 1e-9
            dist = Distribution.uniform(x_set)
            for k in rep.good:
                assert rep.scores[k - 1] >= sizes[k - 1] - float(eps) - 1e-9
                coords = tuple(range(edges[k - 1], edges[k]))
                tv = tv_from_uniform(dist.marginal(coords), 2 ** sizes[k - 1])
                assert float(tv) <= 4 * math.sqrt(float(eps)) + 1e-9


def test_criterion_07_threshold_conclusions_on_exact_uniform():
    with _criterion(7, "uniform-input threshold analysis, exact binomials"):
        start = time.monotonic()
        w = entropy_sum_analysis_uniform(261, 1, 257, 261, 64)
        elapsed = time.monotonic() - start
        assert w.ell == 256 and w.d == 4 and w.ratio_ok
        assert w.P_upper >= Fraction(1, 10)
        assert w.P_lower >= Fraction(1, 10)
        assert w.P_joint <= Fraction(1, 1000)
        assert w.block_bound == binomial_tail(4, 10) == 0
        assert w.holds
        assert elapsed < 1.0


def test_criterion_08_threshold_is_maximal():
    with _criterion(8, "threshold maximal at t, lower tail at least 1/4"):
        rng = random.Random(88)
        quarter = Fraction(1, 4)
        for _ in range(100):
            m = rng.choice((6, 7, 8))
            space = list(product((0, 1), repeat=m + 2))
            removed = set(rng.sample(range(len(space)), rng.randint(0, 6)))
            dist = Distribution.uniform(
                [o for idx, o in enumerate(space) if idx not in removed])
            rep = good_prefix_set(dist, m, m + 2, 2)
            thr = find_threshold(dist, rep.A, m)
            members = set(rep.A)
            mass: dict[int, Fraction] = {}
            for o, pr in dist.items():
                y = o[:m]
                if y in members:
                    mass[sum(y)] = mass.get(sum(y), Fraction(0)) + pr
            tail_t = sum((p for s, p in mass.items() if s >= thr.t), Fraction(0))
            tail_next = sum((p for s, p in mass.items() if s >= thr.t + 1), Fraction(0))
            low = sum((p for s, p in mass.items() if s <= thr.t), Fraction(0))
            assert tail_t >= quarter
            assert tail_next < quarter
            assert low >= quarter


def test_criterion_09_catalan_counts():
    with _criterion(9, "catalan counts match exhaustive enumeration"):
        assert [catalan_count(n) for n in (2, 4, 6, 8)] == [1, 2, 5, 14]
        for n in range(0, 22, 2):
            assert catalan_count(n) == len(reference.enumerate_bal(n))
        for n in range(0, 14, 2):
            brute = sum(1 for x in product((0, 1), repeat=n) if reference.is_balanced(x))
            assert catalan_count(n) == brute


def test_criterion_10_ballot_walk_probabilities():
    with _criterion(10, "ballot walk: symmetry, sqrt floor, reduction"):
        for d in range(1, 21):
            p = unmatched_open_prob(d)
            assert p == unmatched_close_prob(d)
            assert p == Fraction(math.comb(d - 1, (d - 1) // 2), 2 ** d)
            if d >= 4:
                # measured minimum over 4 <= d <= 20 is 0.375, hit at d = 4
                assert Fraction(d) * p * p >= Fraction(9, 64)


def test_criterion_11_pipeline_integrity():
    with _criterion(11, "pipelines: named truncation, formulas, determinism"):
        first = run_pipeline(build_two_level_rank(16, 4, 8, 17), 2)
        assert first.completed or first.truncated_at in {
            s.name for s in first.stages} | {"stretcher"}
        assert first.truncated_at == "stretcher"
        second = run_pipeline(build_two_level_rank(16, 4, 8, 17), 2)
        assert first.render_text() == second.render_text()
        assert first.render_machine() == second.render_machine()

        def dec(vals):
            return vals[:, 0]

        full = run_pipeline(Scheme(
            n=16, u=16, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
            probes=tuple((i,) for i in range(16)),
            encoder=lambda bits: bits, decoders=tuple(dec for _ in range(16))), 2)
        assert full.completed
        es = full.stage("entropy-sum")
        t, ell, d = es.field("t"), es.field("ell"), es.field("d")
        assert es.field("s") == t + (ell + d) / 2 + stretch_term(2, d)
        assert es.field("s_prime") == Fraction(t) + Fraction(ell, 2)

        bracket = run_pipeline(build_bracket_table(12), 4)
        assert bracket.completed
        left = bracket.chain[0]
        assert isinstance(left.value, Fraction) and left.value == 0
        assert dict(bracket.chain_checks)["left_side_zero"]


def test_criterion_12_restriction_soundness():
    with _criterion(12, "restriction preserves answers, pigeonhole exact"):
        cases = [
            (build_precomputed_sums(8, 9), ()),
            (build_precomputed_sums(8, 9), (1, 4)),
            (build_two_level_rank(8, 2, 4, 9), (0, 5)),
            (build_two_level_rank(12, 3, 6, 13), (2,)),
            (build_raw_identity(8, 16), (1,)),
            (build_bracket_table(10), (0, 3)),
            (build_bracket_table(12), (5,)),
        ]
        for scheme, b_cells in cases:
            rs = restrict_scheme(scheme, b_cells)
            assert rs.preserves_answers()
            bound_num = scheme.domain_size()
            bound_den = scheme.cell_alphabet ** len(b_cells)
            assert len(rs.rows) * bound_den >= bound_num
