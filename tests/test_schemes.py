"""Reference scheme builders: layouts, capacity checks, correctness at small n."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellprobe import (
    CapacityError,
    DOMAIN_BAL,
    DomainError,
    KIND_MATCH,
    ParameterError,
    verify_scheme,
)
from cellprobe.schemes import (
    BUILTIN_BUILDERS,
    build_bracket_table,
    build_builtin,
    build_precomputed_sums,
    build_raw_identity,
    build_two_level_rank,
)
from reference import CLOSURES, domain_inputs


def test_precomputed_sums_layout():
    sch = build_precomputed_sums(8)
    assert (sch.u, sch.q, sch.cell_alphabet) == (8, 1, 9)
    assert sch.probes == tuple((i,) for i in range(8))
    assert verify_scheme(sch).ok


def test_precomputed_sums_rejects_small_alphabet():
    with pytest.raises(CapacityError):
        build_precomputed_sums(8, cell_alphabet=8)


def test_two_level_rank_layout_and_correctness():
    sch = build_two_level_rank(8, 2, 4, 9)
    # 4 raw block cells, 4 within-superblock partials, 2 superblock prefixes
    assert sch.u == 10
    assert sch.q == 3
    for i in range(1, 9):
        probe = sch.probes[i - 1]
        assert len(probe) == 3
        assert probe == tuple(sorted(probe))
    assert verify_scheme(sch).ok


def test_two_level_rank_validates_divisibility_and_capacity():
    with pytest.raises(ParameterError):
        build_two_level_rank(8, 3, 4, 9)
    with pytest.raises(ParameterError):
        build_two_level_rank(8, 2, 5, 9)
    with pytest.raises(CapacityError):
        build_two_level_rank(8, 2, 4, 8)   # alphabet must exceed n
    with pytest.raises(CapacityError):
        build_two_level_rank(20, 5, 10, 21)  # 2^block exceeds alphabet


def test_raw_identity_packs_bits_lsb_first():
    sch = build_raw_identity(8, 16)
    assert sch.u == 2
    x = (1, 0, 1, 1, 0, 0, 0, 1)
    cells = sch.encode(x)
    assert cells == (0b1101, 0b1000)
    assert verify_scheme(sch).ok


def test_raw_identity_needs_power_of_two_alphabet():
    with pytest.raises(ParameterError):
        build_raw_identity(8, 12)


def test_bracket_table_is_a_match_scheme():
    sch = build_bracket_table(6)
    assert sch.domain == DOMAIN_BAL and sch.kind == KIND_MATCH
    assert sch.q == 1
    assert len(sch.encoded()[0]) == 5 == len(domain_inputs(sch))
    assert verify_scheme(sch).ok


def test_bracket_table_needs_even_n():
    with pytest.raises(ParameterError):
        build_bracket_table(7)


def test_build_builtin_dispatch():
    assert set(BUILTIN_BUILDERS) == {
        "precomputed_sums", "two_level_rank", "raw_identity", "bracket_table",
    }
    sch = build_builtin("precomputed_sums", n=4)
    assert sch.builtin[0] == "precomputed_sums"
    with pytest.raises(ParameterError):
        build_builtin("no_such_scheme", n=4)


def test_all_reference_schemes_verify_at_n8():
    schemes = [
        build_precomputed_sums(8),
        build_two_level_rank(8, 2, 4, 9),
        build_raw_identity(8, 4),
        build_bracket_table(8),
    ]
    for sch in schemes:
        assert verify_scheme(sch).ok


@st.composite
def builtin_params(draw):
    """A builtin's name and random small valid parameters."""
    name = draw(st.sampled_from(sorted(BUILTIN_BUILDERS)))
    if name == "precomputed_sums":
        n = draw(st.integers(1, 9))
        return name, dict(n=n, cell_alphabet=draw(st.integers(n + 1, n + 4)))
    if name == "two_level_rank":
        block = draw(st.integers(1, 3))
        superblock = block * draw(st.integers(1, 3))
        n = superblock * draw(st.integers(1, 10 // superblock))
        alphabet = max(2 ** block, n + 1) + draw(st.integers(0, 3))
        return name, dict(n=n, block=block, superblock=superblock, cell_alphabet=alphabet)
    if name == "raw_identity":
        return name, dict(n=draw(st.integers(1, 9)), cell_alphabet=2 ** draw(st.integers(1, 4)))
    n = draw(st.sampled_from([2, 4, 6, 8, 10]))
    return name, dict(n=n, cell_alphabet=draw(st.integers(n + 1, n + 4)))


@settings(max_examples=60, deadline=None)
@given(builtin_params(), st.randoms(use_true_random=False))
def test_builtins_agree_with_their_per_input_closures(drawn, rnd):
    name, params = drawn
    sch = build_builtin(name, **params)
    encode, decoders = CLOSURES[name](**params)
    bits, cells = sch.encoded()
    inputs = domain_inputs(sch)
    assert bits.tolist() == [list(x) for x in inputs]
    assert cells.tolist() == [list(encode(x)) for x in inputs]
    # decoders on every value the cells take, and on random values of the alphabet
    m = sch.cell_alphabet
    for i, (probe, ref) in enumerate(zip(sch.probes, decoders), start=1):
        values = np.vstack((cells[:, list(probe)],
                            [[rnd.randrange(m) for _ in probe] for _ in range(30)]))
        assert sch.decode(i, values).tolist() == [ref(tuple(v)) for v in values.tolist()]


def test_bracket_table_encoder_refuses_unbalanced_input():
    sch = build_bracket_table(4)
    with pytest.raises(DomainError, match="not a balanced bracket string"):
        sch.encoder(np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.int8))
    with pytest.raises(DomainError):
        sch.encode((0, 1, 1, 0))
