"""Reference scheme constructors: correct-by-construction baselines.

Each builder returns a Scheme whose encoder/decoders are formula-driven
("builtin") rather than tabulated, tagged so scheme files can reference them
by name.  All four pass exhaustive verification by construction.  Like every
encoder and decoder, they work on matrices with one row per input.
"""

from __future__ import annotations

import inspect

import numpy as np

from .brackets import partners
from .core import DOMAIN_ALL, DOMAIN_BAL, KIND_MATCH, KIND_SUM, Scheme
from .errors import CapacityError, ParameterError


def _builtin_tag(name: str, **params) -> tuple:
    return (name, tuple(sorted(params.items())))


def _read_single(values: np.ndarray) -> np.ndarray:
    return values[:, 0]


def _ones(values: np.ndarray, width: int) -> np.ndarray:
    """Set bits among the low ``width`` bits of each entry, counted by shifts."""
    return sum((values >> z) & 1 for z in range(width))


def _pack(bits: np.ndarray, width: int) -> np.ndarray:
    """Each run of ``width`` bits of a row as one int, first bit lowest (the last may be short)."""
    k, n = bits.shape
    padded = np.zeros((k, -(-n // width) * width), dtype=np.int64)
    padded[:, :n] = bits
    return (padded.reshape(k, -1, width) << np.arange(width)).sum(axis=2)


def build_precomputed_sums(n: int, cell_alphabet: int | None = None) -> Scheme:
    """One cell per query holding Sum(i) itself; q = 1, maximal redundancy."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if cell_alphabet is None:
        cell_alphabet = n + 1
    if cell_alphabet <= n:
        raise CapacityError(f"a cell of alphabet {cell_alphabet} cannot hold sums up to {n}")

    def encode(bits):
        return np.cumsum(bits, axis=1, dtype=np.int64)

    return Scheme(
        n=n,
        u=n,
        cell_alphabet=cell_alphabet,
        domain=DOMAIN_ALL,
        kind=KIND_SUM,
        probes=tuple((i,) for i in range(n)),
        encoder=encode,
        decoders=(_read_single,) * n,
        builtin=_builtin_tag("precomputed_sums", n=n, cell_alphabet=cell_alphabet),
    )


def build_two_level_rank(n: int, block: int, superblock: int, cell_alphabet: int) -> Scheme:
    """Classic three-probe rank layout: raw blocks, in-superblock partials, superblock sums.

    Cell layout: [0, n/block) packed raw blocks, then n/block partial sums
    (count before each block within its superblock), then n/superblock counts
    before each superblock.  Every query probes exactly one cell of each kind.
    """
    if n < 1 or block < 1 or superblock < 1:
        raise ParameterError(f"sizes must be positive, got n={n} block={block} superblock={superblock}")
    if superblock % block or n % superblock:
        raise ParameterError(
            f"need block | superblock | n, got block={block} superblock={superblock} n={n}"
        )
    if cell_alphabet < 2 ** block:
        raise CapacityError(f"alphabet {cell_alphabet} cannot pack {block} raw bits per cell")
    if cell_alphabet <= n:
        raise CapacityError(f"alphabet {cell_alphabet} cannot hold superblock sums up to {n}")

    n_blocks = n // block
    n_super = n // superblock
    per_super = superblock // block
    raw_base, partial_base, super_base = 0, n_blocks, 2 * n_blocks

    def encode(bits):
        sums = np.zeros((len(bits), n + 1), dtype=np.int64)
        np.cumsum(bits, axis=1, dtype=np.int64, out=sums[:, 1:])
        partial = sums[:, 0:n:block] - sums[:, np.arange(n_blocks) // per_super * superblock]
        return np.hstack((_pack(bits, block), partial, sums[:, 0:n:superblock]))

    probes = []
    decoders = []
    for i in range(1, n + 1):
        blk = (i - 1) // block
        sb = (i - 1) // superblock
        # base offsets keep the three kinds in ascending cell order
        probe = (raw_base + blk, partial_base + blk, super_base + sb)
        within = i - blk * block  # 1..block raw bits to count

        def decode(values, _within=within):
            return values[:, 1] + values[:, 2] + _ones(values[:, 0], _within)

        probes.append(probe)
        decoders.append(decode)

    return Scheme(
        n=n,
        u=2 * n_blocks + n_super,
        cell_alphabet=cell_alphabet,
        domain=DOMAIN_ALL,
        kind=KIND_SUM,
        probes=tuple(probes),
        encoder=encode,
        decoders=tuple(decoders),
        builtin=_builtin_tag(
            "two_level_rank", n=n, block=block, superblock=superblock, cell_alphabet=cell_alphabet
        ),
    )


def build_raw_identity(n: int, cell_alphabet: int) -> Scheme:
    """Zero-redundancy packing of x itself; query i probes the cells covering prefix i."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    bits_per_cell = cell_alphabet.bit_length() - 1
    if cell_alphabet < 2 or cell_alphabet != 1 << bits_per_cell:
        raise ParameterError(f"cell alphabet must be a power of two, got {cell_alphabet}")
    u = -(-n // bits_per_cell)

    def encode(bits):
        return _pack(bits, bits_per_cell)

    probes = []
    decoders = []
    for i in range(1, n + 1):
        last = (i - 1) // bits_per_cell
        within = i - last * bits_per_cell

        def decode(values, _last=last, _within=within):
            full = _ones(values[:, :_last], bits_per_cell).sum(axis=1, dtype=np.int64)
            return full + _ones(values[:, _last], _within)

        probes.append(tuple(range(last + 1)))
        decoders.append(decode)

    return Scheme(
        n=n,
        u=u,
        cell_alphabet=cell_alphabet,
        domain=DOMAIN_ALL,
        kind=KIND_SUM,
        probes=tuple(probes),
        encoder=encode,
        decoders=tuple(decoders),
        builtin=_builtin_tag("raw_identity", n=n, cell_alphabet=cell_alphabet),
    )


def build_bracket_table(n: int, cell_alphabet: int | None = None) -> Scheme:
    """Stores Match(i) verbatim in cell i-1; domain is the balanced strings."""
    if n < 2 or n % 2:
        raise ParameterError(f"bracket strings need even n >= 2, got {n}")
    if cell_alphabet is None:
        cell_alphabet = n + 1
    if cell_alphabet <= n:
        raise CapacityError(f"a cell of alphabet {cell_alphabet} cannot hold indices up to {n}")

    return Scheme(
        n=n,
        u=n,
        cell_alphabet=cell_alphabet,
        domain=DOMAIN_BAL,
        kind=KIND_MATCH,
        probes=tuple((i,) for i in range(n)),
        encoder=partners,
        decoders=(_read_single,) * n,
        builtin=_builtin_tag("bracket_table", n=n, cell_alphabet=cell_alphabet),
    )


BUILTIN_BUILDERS = {
    "precomputed_sums": build_precomputed_sums,
    "two_level_rank": build_two_level_rank,
    "raw_identity": build_raw_identity,
    "bracket_table": build_bracket_table,
}


def build_builtin(name: str, **params) -> Scheme:
    try:
        builder = BUILTIN_BUILDERS[name]
    except KeyError:
        raise ParameterError(
            f"unknown builtin scheme {name!r}; known: {sorted(BUILTIN_BUILDERS)}"
        ) from None
    signature = inspect.signature(builder)
    try:
        signature.bind(**params)
    except TypeError as err:
        raise ParameterError(
            f"builtin {name!r} takes parameters {list(signature.parameters)}: {err}"
        ) from None
    return builder(**params)
