"""quantize_group, the encoder's one gate.

A group's tensors and error sums equal those of one config encoded alone, and the rows,
configs and score slots it is given are checked before it yields any tensor.
"""

import numpy as np
import pytest

from kbitq import QuantConfig, quantize_tensor, quantizer
from kbitq.accounting import ErrorSums
from kbitq.errors import DimensionError, InvalidIndexError, InvalidSpecError
from kbitq.outliers import quantize_mixed
from kbitq.quantizer import quantize_group

INT3 = QuantConfig(kind="int", bits=3)
INT4 = QuantConfig(kind="int", bits=4, block_size=64)


def matrix(shape=(24, 10), salt=0):
    gen = np.random.Generator(np.random.Philox(key=4077 + salt))
    w = gen.standard_t(4, shape)
    w[4] *= 25.0
    return w


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("rows", [(), [17, 4, 9, 17, 4]], ids=["no-rows", "rows"])
@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("block_size", [7, 64, None], ids=["B7", "B64", "whole"])
def test_group_equals_each_config_alone(monkeypatch, block_size, centered, rows, dtype):
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 50)  # several slabs, not for whole blocks
    t = matrix().astype(dtype)
    group = [QuantConfig(kind, bits, block_size, centered)
             for kind in ("int", "float", "dynamic", "quantile") for bits in (3, 4, 8)]
    sums = [ErrorSums() for _ in group]
    encoded = list(quantize_group(t, rows, group, sums=sums))
    assert len(encoded) == len(group)
    for config, q, config_sums in zip(group, encoded, sums):
        alone = ErrorSums()
        if len(rows):
            expected = quantize_mixed(t, np.unique(rows), None, config, alone)
        else:
            expected = quantize_tensor(t, None, config, alone)
        assert q == expected, config
        assert vars(config_sums) == vars(alone), config


class TestRows:
    @pytest.mark.parametrize("rows", [[1.5], np.array([2.9]), [True], [2**31], [2**32 + 1],
                                      [2**64], ["1"], [-(2**70)]],
                             ids=repr)
    def test_anything_but_an_integer_row_rejected(self, rows):
        with pytest.raises(InvalidIndexError, match=r"integers in \[0, 10\)"):
            quantize_mixed(np.arange(50.0).reshape(10, 5), rows, None, INT3)

    def test_unsorted_rows_with_repeats_are_sorted_and_deduplicated(self):
        x = matrix((64, 64))
        group = [INT4, QuantConfig(kind="quantile", bits=3, block_size=64)]
        got = list(quantize_group(x, [5, 3, 5], group))
        assert len(got) == 2 and got == list(quantize_group(x, [3, 5], group))
        assert got[0].outlier_dims.dtype == np.int32
        assert got[0].outlier_dims.tolist() == [3, 5]

    @pytest.mark.parametrize("rows", [[70], [-1], [3, 64]])
    def test_row_outside_the_tensor_rejected(self, rows):
        with pytest.raises(InvalidIndexError):
            next(quantize_group(matrix((64, 64)), rows, [INT4]))

    def test_no_row_of_a_0d_tensor(self):
        assert quantize_tensor(np.float64(2.0), None, INT4).outlier_dims.size == 0
        with pytest.raises(InvalidIndexError):
            next(quantize_group(np.float64(2.0), [0], [INT4]))

    def test_a_1d_input_to_quantize_mixed_is_still_a_dimension_error(self):
        with pytest.raises(DimensionError):
            quantize_mixed(np.ones(10), [2**40], None, INT3)


class TestConfigsAndSums:
    @pytest.mark.parametrize("configs", [
        [],
        [INT4, QuantConfig(kind="int", bits=4, block_size=64, centered=True)],
        [QuantConfig(kind="int", bits=4, block_size=64, centered=True), INT4],
        [INT4, QuantConfig(kind="int", bits=4, block_size=32)],
        [INT4, QuantConfig(kind="int", bits=4)],
    ], ids=["empty", "centered-second", "centered-first", "B32", "whole"])
    def test_configs_of_another_layout_rejected_before_any_tensor(self, configs):
        with pytest.raises(InvalidSpecError, match="one block size and centering"):
            next(quantize_group(matrix((64, 64)), (), configs))

    @pytest.mark.parametrize("n_sums", [0, 1, 3])
    def test_one_sums_entry_per_config(self, n_sums):
        group = quantize_group(matrix((64, 64)), (), [INT4, INT4],
                               sums=[ErrorSums() for _ in range(n_sums)])
        with pytest.raises(InvalidSpecError, match="2 configs need as many sums"):
            next(group)
