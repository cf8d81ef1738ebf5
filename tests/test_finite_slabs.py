"""The finiteness test of the encoder's input runs slab by slab, in the first pass over a
tensor's slabs (encode, the held slabs of a group, or the quantile sample), and on the
outlier rows, which no slab holds, apart. A NaN or an infinity anywhere raises the one
InvalidValueError at any number of workers, before any codebook is estimated, and the CLI
reports it as one line with exit code 1."""

import numpy as np
import pytest

from kbitq import QuantConfig, quantize_tensor, quantizer, write_container
from kbitq.accounting import ErrorSums
from kbitq.errors import InvalidValueError
from kbitq.outliers import quantize_mixed
from test_cli import run_cli

MESSAGE = "tensor contains non-finite values"
INT4 = QuantConfig(kind="int", bits=4, block_size=64)


def tensors(case: str) -> dict[str, np.ndarray]:
    """up -> down: at p=0.004 down's rows 5 and 333 are outlier rows, and its 299000 kept
    elements span two slabs; wide: 999000 elements, four slabs at B=64, one whole block."""
    gen = np.random.Generator(np.random.Philox(key=1717))
    if case.startswith("wide"):
        wide = gen.standard_normal((1000, 999)).astype(np.float32)
        wide[400, 10] = np.nan if "nan" in case else np.inf  # in the second of four slabs
        return {"wide": wide}
    up = gen.standard_normal((48, 600))
    up[:, [5, 333]] *= 8.0
    down = (gen.standard_normal((600, 500)) + 1.5).astype(np.float16)
    down[[5, 333]] *= 30.0
    down[333, 7] = np.inf if case == "row-inf" else np.nan  # an outlier row
    if case == "row-and-slab-nan":
        down[100, 3] = np.nan  # a kept row, in the first slab
    return {"up": up.astype(np.float32), "down": down}


# case -> (library call, CLI flags after the paths)
CASES = {
    "row-nan": (lambda t: quantize_mixed(t["down"], [5, 333], None, INT4, ErrorSums()),
                ["--outlier-p", "0.004"]),
    "row-inf": (lambda t: quantize_mixed(t["down"], [5, 333], None, INT4, ErrorSums()),
                ["--outlier-p", "0.004"]),
    "row-and-slab-nan": (lambda t: quantize_mixed(t["down"], [5, 333], None, INT4),
                         ["--outlier-p", "0.004"]),
    "wide-middle-slab-nan": (lambda t: quantize_tensor(t["wide"], None, INT4, ErrorSums()),
                             []),
    "wide-middle-slab-inf-centered": (
        lambda t: quantize_tensor(t["wide"], None, QuantConfig("float", 3, 64, True)),
        ["--dtype", "float", "--bits", "3", "--centered"]),
    "wide-whole-quantile-nan": (
        lambda t: quantize_tensor(t["wide"], None, QuantConfig("quantile", 4)),
        ["--dtype", "quantile", "--block-size", "whole"]),
    "wide-sweep-group-nan": (
        lambda t: list(quantizer.quantize_group(t["wide"], (), [INT4, QuantConfig("float", 4, 64)],
                                                sums=[ErrorSums(), ErrorSums()])),
        ["--dtype", "int,float"]),
}


@pytest.fixture
def no_book_estimated(monkeypatch):
    def estimated(*args):
        raise AssertionError("a quantile codebook was estimated")

    monkeypatch.setattr(quantizer, "build_quantile_codebook", estimated)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", list(CASES))
def test_non_finite_value_raises_first(monkeypatch, capsys, tmp_path, no_book_estimated,
                                       case, workers):
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    call, flags = CASES[case]
    inputs = tensors(case)
    with pytest.raises(InvalidValueError) as caught:
        call(inputs)
    assert str(caught.value) == MESSAGE
    write_container(tmp_path / "in.st", inputs)
    command = "sweep" if "sweep" in case else "quantize"
    paths = [tmp_path / "in.st"] + ([] if command == "sweep" else [tmp_path / "out.kbq"])
    assert run_cli(capsys, command, *paths, *flags) == (1, "", f"kbitq {command}: {MESSAGE}\n")
    assert not (tmp_path / "out.kbq").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_codebook_for_tests_its_sample(no_book_estimated, value):
    x = np.random.default_rng(6).standard_normal(1000)
    x[600] = value
    with pytest.raises(InvalidValueError, match=MESSAGE):
        quantizer.codebook_for(x, QuantConfig("quantile", 4, 64))
