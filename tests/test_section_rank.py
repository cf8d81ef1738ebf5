"""QuantizedTensor.validate refuses an absmax, means, outlier_dims or codebook section of
the right size and dtype but not 1-D, naming the section, so write_kbq and dequantize_tensor
refuse it with CorruptDataError instead of failing inside numpy. Outlier rows may take any
layout: the encoder stores them as a (rows, width) array."""

import dataclasses

import numpy as np
import pytest

from kbitq import QuantConfig, dequantize_tensor, write_kbq
from kbitq.errors import CorruptDataError
from kbitq.outliers import quantize_mixed

# field -> its KBQ section name
FIELDS = {"absmax": "absmax", "means": "means", "outlier_dims": "outlier_dims",
          "codebook_values": "codebook"}


@pytest.fixture(scope="module")
def tensor():
    """A centered quantile tensor with two outlier rows: every section is present."""
    x = np.random.Generator(np.random.Philox(key=2525)).standard_normal((16, 32))
    return quantize_mixed(x, [2, 9], None, QuantConfig("quantile", 4, 64, True))


def reshaped(q, field, shape):
    return dataclasses.replace(q, **{field: getattr(q, field).reshape(shape)})


@pytest.mark.parametrize("shape", [(1, -1), (-1, 1)], ids=["row", "column"])
@pytest.mark.parametrize("field", list(FIELDS))
def test_a_section_not_1d_is_corrupt(tmp_path, tensor, field, shape):
    bad = reshaped(tensor, field, shape)
    message = f"^{FIELDS[field]} is 2-D, not 1-D$"
    for call in (bad.validate, lambda: dequantize_tensor(bad),
                 lambda: write_kbq({"w": bad}, tmp_path / "t.kbq")):
        with pytest.raises(CorruptDataError, match=message):
            call()
    assert not (tmp_path / "t.kbq").exists()


@pytest.mark.parametrize("field", list(FIELDS))
def test_a_0d_section_is_corrupt(tensor, field):
    one = dataclasses.replace(tensor, **{field: getattr(tensor, field)[:1].reshape(())})
    with pytest.raises(CorruptDataError, match=f"^{FIELDS[field]} is 0-D, not 1-D$"):
        one.validate()


def test_outlier_rows_take_any_layout(tensor):
    assert tensor.outlier_rows.ndim == 2
    flat = dataclasses.replace(tensor, outlier_rows=tensor.outlier_rows.reshape(-1))
    flat.validate()
    assert np.array_equal(dequantize_tensor(flat), dequantize_tensor(tensor))
