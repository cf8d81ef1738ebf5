"""Outlier detection refuses a ranked layer holding a NaN or an infinity: its column's std is
NaN, taken with no floating-point warning, and detect_outlier_dims raises InvalidValueError,
on the slab pool or on the cast of a layer whose rows are not C-contiguous. The CLI reports
it as one line with exit code 1, also with warnings turned into errors."""

import warnings

import numpy as np
import pytest

from kbitq import detect_outlier_dims, quantizer, write_container
from kbitq.errors import InvalidValueError
from test_cli import run_cli

MESSAGE = "tensor contains non-finite values"


def chain(value=np.inf, order="C"):
    """A 48x64 F32 up holding value at [20, 7], chained to a 64x48 down."""
    gen = np.random.Generator(np.random.Philox(key=2020))
    up = gen.standard_normal((48, 64)).astype(np.float32)
    up[20, 7] = value
    return [np.asarray(up, order=order), gen.standard_normal((64, 48)).astype(np.float32)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_detection_refuses_a_non_finite_layer(monkeypatch, value, order, workers):
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    layers = chain(value, order)
    assert layers[0].flags.c_contiguous == (order == "C")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidValueError, match=MESSAGE):
            detect_outlier_dims(layers, 0.1)


def test_opposite_infinities_in_one_column_are_refused():
    layers = chain(np.inf)
    layers[0][30, 7] = -np.inf  # the column's sum is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidValueError, match=MESSAGE):
            detect_outlier_dims(layers, 0.1)


def test_the_last_layer_is_not_ranked():
    up, down = chain(1.0)
    down[5, 5] = np.inf
    assert detect_outlier_dims([up, down], 0.1)[1].size == 6


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["quantize", "sweep"])
def test_cli_reports_one_line_under_warnings_as_errors(monkeypatch, capsys, tmp_path, command,
                                                       workers):
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    up, down = chain()
    write_container(tmp_path / "in.st", {"up": up, "down": down})
    paths = [tmp_path / "in.st"] + ([tmp_path / "out.kbq"] if command == "quantize" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(capsys, command, *paths, "--outlier-p", "0.1")
    assert result == (1, "", f"kbitq {command}: {MESSAGE}\n")
    assert not (tmp_path / "out.kbq").exists()
