"""Slab tasks look up, gather and mark codes in chunks of _CHUNK_ELEMENTS (2^16), widened to
intp in each thread's workspace, and a group sums each leaf's signal once, for its first
config. Code marks equal np.unique on either side of a chunk edge, decoding is exact where
blocks straddle chunk edges, and a group's error sums equal each config's alone."""

import numpy as np
import pytest

from kbitq import QuantConfig, quantize_tensor, quantizer
from kbitq.accounting import ErrorSums, _marked, code_use
from kbitq.outliers import quantize_mixed
from kbitq.quantizer import quantize_group

CHUNK = quantizer._CHUNK_ELEMENTS
SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


def test_one_chunk_is_2_to_the_16():
    assert CHUNK == 1 << 16 and quantizer._SLAB_ELEMENTS == 1 << 18


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("n", SIZES)
def test_marked_equals_unique(n, dtype):
    """Codes 0-199 fill the middle; code 0 is only first, 254 and 255 only in the last chunk."""
    codes = np.random.default_rng(n).integers(1, 200, n).astype(dtype)
    codes[0], codes[-2:] = 0, [254, 255]
    assert np.array_equal(np.flatnonzero(_marked(codes)), np.unique(codes))


@pytest.mark.parametrize("n", SIZES)
def test_code_use_equals_unique(n):
    """The top code is used by the last element alone, the absmax of one whole block."""
    x = np.random.default_rng(n).standard_normal(n)
    x[-1] = 100.0
    q = quantize_tensor(x, None, QuantConfig("int", 8))
    codes = q.indices()
    assert code_use(q) == (np.unique(codes).size, len(quantizer.reconstruct_codebook(q)))
    assert codes[-1] == codes.max() and np.sum(codes == codes[-1]) == 1


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("block_size", [64, 100])
def test_decode_is_exact_across_chunk_edges(block_size, centered):
    """A slab of 3 chunks and 5 codes, its blocks offset by 3 into the tensor's constants."""
    gen = np.random.default_rng(block_size)
    book = quantizer.codebook_for(np.zeros(1), QuantConfig("int", 4))
    n = 3 * CHUNK + 5
    codes = gen.integers(0, len(book), n).astype(np.uint8)
    n_blocks = -(-n // block_size)
    absmax16 = gen.uniform(0.1, 4.0, n_blocks + 3).astype(np.float16)
    means16 = gen.standard_normal(n_blocks + 3).astype(np.float16) if centered else None
    blocks = slice(3, 3 + n_blocks)
    values = quantizer._decode(book, codes, absmax16, means16, blocks, block_size)
    of_block = np.arange(n) // block_size + 3
    expected = book.values[codes.astype(np.intp)] * absmax16.astype(np.float64)[of_block]
    if centered:
        expected += means16.astype(np.float64)[of_block]
    assert values.dtype == np.float64 and np.array_equal(values, expected)


@pytest.mark.parametrize("rows", [(), [3, 17, 30]], ids=["no-rows", "rows"])
@pytest.mark.parametrize("block_size", [1000, None], ids=["B1000", "whole"])
def test_nine_config_group_of_split_blocks_scores_as_each_alone(monkeypatch, block_size, rows):
    """With slabs of 256 elements each block of a 40x60 tensor is split into leaves, and the
    group's later configs reuse the signal sums of its first."""
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 256)
    gen = np.random.Generator(np.random.Philox(key=1919))
    t = gen.standard_t(4, (40, 60)).astype(np.float32)
    t[17] *= 20.0
    group = [QuantConfig(kind, bits, block_size)
             for kind in ("int", "dynamic", "quantile") for bits in (3, 5, 8)]
    sums = [ErrorSums() for _ in group]
    encoded = list(quantize_group(t, rows, group, sums=sums))
    assert len(quantizer._leaf_sizes(quantizer._pairwise_tree(1000))) > 1
    for config, q, config_sums in zip(group, encoded, sums):
        alone = ErrorSums()
        if len(rows):
            expected = quantize_mixed(t, rows, None, config, alone)
        else:
            expected = quantize_tensor(t, None, config, alone)
        assert q == expected, config
        assert vars(config_sums) == vars(alone), config


def test_a_given_signal_is_taken_as_it_is():
    a, b = np.arange(5.0), np.arange(5.0) + 0.5
    assert ErrorSums.partial(a, b, None, False, 1.25)[1] == 1.25
    assert ErrorSums.partial(a, b)[1] == float(np.sum(a * a))
