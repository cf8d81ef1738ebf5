"""One walk per sweep group: quantize_group normalizes each kept-row slab once and looks it
up under every config, scoring as it goes, and folds each config's error sums only after
the walk. A fault in any slab leaves every ErrorSums as constructed, unscored configs do
not disturb a scored one, each tensor owns its constants, and a nine-config group holds
no float64 copy of the tensor. Outlier stds that overflow float64 rank first, silently."""

import tracemalloc
import warnings

import numpy as np
import pytest

from kbitq import QuantConfig, detect_outlier_dims, quantizer
from kbitq.accounting import ErrorSums
from kbitq.errors import InvalidValueError
from kbitq.outliers import _column_stds, quantize_mixed
from kbitq.quantizer import quantize_group


def student_t(shape, salt=0):
    return np.random.Generator(np.random.Philox(key=2121 + salt)).standard_t(5, shape)


GROUP3 = [QuantConfig(kind, 4, 64) for kind in ("int", "float", "dynamic")]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("group", [GROUP3[:1], GROUP3], ids=["1-config", "3-config"])
def test_a_nan_in_a_later_slab_leaves_every_sums_as_constructed(monkeypatch, group, workers):
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 256)  # 8 slabs of 4 blocks
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    t = student_t((40, 50)).astype(np.float32)
    t[37, 3] = np.nan  # in the last slab
    sums = [ErrorSums() for _ in group]
    with pytest.raises(InvalidValueError, match="non-finite"):
        list(quantize_group(t, (), group, sums=sums))
    for config_sums in sums:
        assert vars(config_sums) == vars(ErrorSums())


@pytest.mark.parametrize("rows", [(), [3, 30]], ids=["no-rows", "rows"])
@pytest.mark.parametrize("block_size", [64, None], ids=["B64", "whole"])
def test_unscored_configs_leave_the_scored_one_as_alone(monkeypatch, block_size, rows):
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 256)  # whole: leaves of one split block
    t = student_t((40, 50), 1)
    group = [QuantConfig(kind, bits, block_size, True)
             for kind, bits in (("float", 3), ("quantile", 4), ("int", 8))]
    sums = [None, ErrorSums(), None]
    encoded = list(quantize_group(t, rows, group, sums=sums))
    alone = ErrorSums()
    expected = quantize_mixed(t, rows, None, group[1], alone)
    assert encoded[1] == expected
    assert vars(sums[1]) == vars(alone)


def test_each_tensor_owns_its_constants():
    group = [QuantConfig(kind, 4, 64, True) for kind in ("int", "float", "quantile")]
    first, *others = quantize_group(student_t((64, 64), 2), (), group)
    kept = [(q.absmax.copy(), q.means.copy()) for q in others]
    first.absmax[:] = 0
    first.means[:] = 0
    for q, (absmax, means) in zip(others, kept):
        assert np.array_equal(q.absmax, absmax) and np.array_equal(q.means, means)
        assert q.absmax.any()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_nine_config_group_holds_no_float64_copy(monkeypatch, workers):
    """After a warm-up group, one of int, float and quantile at 3, 4 and 8 bits, B=64, scored,
    peaks under 16 bytes an element of a 1024x1024 float32 tensor: its quantile sample (8) is
    freed before the walk, whose nine code arrays (1 each) are dropped as they are packed.
    A float64 copy of the tensor held across the walk would add 8."""
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    x = student_t((1024, 1024), 3).astype(np.float32)
    group = [QuantConfig(kind, bits, 64) for kind in ("int", "float", "quantile")
             for bits in (3, 4, 8)]

    def sweep():
        return list(quantize_group(x, (), group, sums=[ErrorSums() for _ in group]))

    sweep()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        encoded = sweep()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(encoded) == 9
    assert peak < 16 * x.size


@pytest.mark.parametrize("order", ["C", "F"])
def test_an_overflowing_column_std_is_inf_and_ranks_first(order):
    up = np.asarray(student_t((4, 6), 4), order=order)
    up[0, 2], up[3, 2] = 1e200, -1e200  # squares past the float64 range
    with np.errstate(over="ignore"):
        expected = up.std(axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stds = _column_stds(up)
        dims = detect_outlier_dims([up, student_t((6, 5), 5)], 1 / 6)
    assert stds[2] == np.inf and np.array_equal(stds, expected)
    assert dims[1].tolist() == [2]

