"""Per-input references the row-wise package is checked against.

The package encodes and decodes whole matrices; these are the plain
one-input-at-a-time formulas: the builtin schemes' encoders and decoders as
tuple closures, a Python prefix-sum and Match oracle, and a verification loop
that asks the scheme one (input, query) pair at a time.
"""

from itertools import accumulate, product

from cellprobe import DOMAIN_ALL, KIND_SUM, DomainError, enumerate_bal, prefix_sums, scan_matches


def prefix_sum(x, i: int) -> int:
    """Sum(i): number of ones among the first i bits."""
    return sum(x[:i])


# Sum on every prefix; the package's pure-Python helper, kept under both names
prefix_sum_all = prefix_sums


def match_all(x) -> tuple[int, ...]:
    """Match(i) for every position of a balanced string."""
    matches = scan_matches(x)
    if any(m is None for m in matches):
        raise DomainError("match oracle needs a balanced bracket string")
    return matches


def oracle_all(scheme, x) -> tuple[int, ...]:
    """Ground-truth answers for every query on x, per the scheme's kind."""
    return prefix_sum_all(x) if scheme.kind == KIND_SUM else match_all(x)


def domain_inputs(scheme) -> list:
    """All domain elements in lexicographic order."""
    if scheme.domain == DOMAIN_ALL:
        return list(product((0, 1), repeat=scheme.n))
    return enumerate_bal(scheme.n)


def loop_verify(scheme):
    """One ``Scheme.answer`` call per (input, query), in lexicographic order."""
    checked = failures = 0
    first = None
    for x in domain_inputs(scheme):
        expected = oracle_all(scheme, x)
        for i in range(1, scheme.n + 1):
            got = scheme.answer(x, i)
            checked += 1
            if got != expected[i - 1]:
                failures += 1
                if first is None:
                    first = (x, i, got, expected[i - 1])
    return checked, failures, first


def _read_single(values):
    return values[0]


def precomputed_sums(n, cell_alphabet=None):
    """(encoder, decoders) of ``build_precomputed_sums`` on tuples."""
    return (lambda x: tuple(accumulate(x))), (_read_single,) * n


def two_level_rank(n, block, superblock, cell_alphabet):
    n_blocks, n_super, per_super = n // block, n // superblock, superblock // block

    def encode(x):
        sums = (0,) + tuple(accumulate(x))
        raw = tuple(sum(x[t * block + z] << z for z in range(block)) for t in range(n_blocks))
        partial = tuple(
            sums[t * block] - sums[(t // per_super) * superblock] for t in range(n_blocks))
        return raw + partial + tuple(sums[s * superblock] for s in range(n_super))

    decoders = []
    for i in range(1, n + 1):
        mask = (1 << (i - (i - 1) // block * block)) - 1
        decoders.append(lambda values, _mask=mask:
                        values[1] + values[2] + bin(values[0] & _mask).count("1"))
    return encode, tuple(decoders)


def raw_identity(n, cell_alphabet):
    per_cell = cell_alphabet.bit_length() - 1
    u = -(-n // per_cell)

    def encode(x):
        return tuple(sum(x[c * per_cell + z] << z for z in range(min(per_cell, n - c * per_cell)))
                     for c in range(u))

    decoders = []
    for i in range(1, n + 1):
        last = (i - 1) // per_cell
        mask = (1 << (i - last * per_cell)) - 1
        decoders.append(lambda values, _last=last, _mask=mask:
                        sum(bin(v).count("1") for v in values[:_last])
                        + bin(values[_last] & _mask).count("1"))
    return encode, tuple(decoders)


def bracket_table(n, cell_alphabet=None):
    return match_all, (_read_single,) * n


CLOSURES = {
    "precomputed_sums": precomputed_sums,
    "two_level_rank": two_level_rank,
    "raw_identity": raw_identity,
    "bracket_table": bracket_table,
}
