"""Each block's max and min give its absmax and the finiteness test: _normalize takes them
first, refuses a NaN or an infinity before any block constant is stored, and derives the
absmax as max(max - mean, mean - min) + 0.0, which is max |x - mean| bit for bit. It may
normalize in place (out=x), takes nothing from the workspace, and a block longer than a
slab is one float64 array normalized in place, so a whole-block quantize holds no second
float64 copy of the tensor."""

import threading
import tracemalloc

import numpy as np
import pytest

from kbitq import QuantConfig, quantize_tensor, quantizer
from kbitq.accounting import ErrorSums
from kbitq.errors import InvalidValueError
from kbitq.quantizer import _normalize, quantize_group
from test_slab_pool import TestBlockBroadcast

MESSAGE = "tensor contains non-finite values"


def pattern(name: str, n: int) -> np.ndarray:
    """n values of a named block pattern; the extremes sit at the first and last element."""
    x = np.random.Generator(np.random.Philox(key=2222 + n)).standard_normal(n)
    if name == "negative-zero":
        x[:] = -0.0
    elif name == "mixed-zero":
        x[:] = np.where(np.arange(n) % 2, 0.0, -0.0)
    elif name == "tie-uncentered":  # max - 0 ties 0 - min
        x[:] = 0.5 * x / (1 + np.abs(x))
        x[0], x[-1] = 0.75, -0.75
    elif name == "tie-centered":  # mean 2 exactly; max - mean ties mean - min
        x[:] = 2.0
        x[0], x[-1] = 3.0, 1.0
    elif name == "max16":
        x[0], x[-1] = 65504.0, -65504.0
    elif name == "wide16":  # centered, the spread from the mean passes 65504
        x[:] = -65504.0
        x[-1] = 65504.0
    elif name == "at65520":
        x[0] = 65520.0
    return x


PATTERNS = ["random", "negative-zero", "mixed-zero", "tie-uncentered", "tie-centered", "max16",
            "wide16", "at65520"]


def source(name: str, block_size: int | None, dtype) -> tuple[np.ndarray, int]:
    """(float64 cast of a dtype source, block size): at B=1 every element is a block of the
    pattern; at B=7 and 64 two random blocks, a pattern block, a random one and a short
    pattern block last; None is one block of the pattern alone."""
    if block_size is None:
        x = pattern(name, 100)
    elif block_size == 1:
        x = pattern(name, 20)
    else:
        x = np.concatenate([pattern("random", 2 * block_size), pattern(name, block_size),
                            pattern("random", block_size), pattern(name, block_size // 2 + 1)])
    return x.astype(dtype).astype(np.float64), block_size or x.size


def unrounded_absmax(x: np.ndarray, block_size: int, centered: bool) -> np.ndarray:
    """max |x - mean16| of each block before binary16 rounding."""
    starts = np.arange(0, x.size, block_size)
    counts = np.diff(np.append(starts, x.size))
    _, _, means16 = TestBlockBroadcast.repeat_normalize(x, block_size, centered)
    mean = np.repeat(means16.astype(np.float64), counts) if centered else 0.0
    return np.maximum.reduceat(np.abs(x - mean), starts)


def as_bytes(result):
    return [None if a is None else a.tobytes() for a in result]


@pytest.mark.parametrize("centered", [False, True], ids=["plain", "centered"])
@pytest.mark.parametrize("block_size", [1, 7, 64, None], ids=["B1", "B7", "B64", "one-block"])
@pytest.mark.parametrize("name, dtype", [  # 65520 is beyond binary16
    pytest.param(name, dtype, id=f"{name}-{np.dtype(dtype).name}") for name in PATTERNS
    for dtype in (np.float16, np.float32, np.float64)
    if not (name == "at65520" and dtype == np.float16)])
def test_equals_the_repeat_form(name, dtype, block_size, centered):
    x, block_size = source(name, block_size, dtype)
    if (unrounded_absmax(x, block_size, centered) >= 65520).any():
        for out in (None, x.copy()):
            with pytest.raises(InvalidValueError, match="block constant beyond the binary16"):
                _normalize(x.copy(), block_size, centered, out)
        return
    expected = as_bytes(TestBlockBroadcast.repeat_normalize(x, block_size, centered))
    assert as_bytes(_normalize(x.copy(), block_size, centered)) == expected
    y = x.copy()
    normalized, *constants = _normalize(y, block_size, centered, y)  # in place
    assert normalized is y
    assert as_bytes([y, *constants]) == expected


def test_patterns_reach_their_edge_cases():
    """The patterns hold what they are named for: signed zeros stay signed in the source,
    ties tie, and the binary16 edges are hit or passed."""
    zeros, _ = source("negative-zero", 64, np.float16)
    assert np.signbit(zeros[128:192]).all()
    x, _ = source("tie-centered", 7, np.float32)
    block = x[14:21]
    assert block.max() - block.mean() == block.mean() - block.min() == 1.0
    assert unrounded_absmax(*source("max16", 64, np.float16), False).max() == 65504.0
    assert unrounded_absmax(*source("wide16", 7, np.float16), True).max() > 65520.0
    assert unrounded_absmax(*source("at65520", None, np.float32), False).max() == 65520.0


@pytest.mark.parametrize("centered", [False, True], ids=["plain", "centered"])
def test_normalize_takes_nothing_from_the_workspace(centered):
    """A fresh thread normalizing a slab in place leaves its workspace empty, and no array
    near a slab's size is allocated: per-block arrays only."""
    x = pattern("random", quantizer._SLAB_ELEMENTS)
    seen = {}

    def run():
        tracemalloc.start()
        try:
            _normalize(x, 64, centered, x)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen["slots"] = dict(vars(quantizer._workspace))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    assert seen["slots"] == {}
    assert seen["peak"] < x.size  # a float64 slab temporary is 8 bytes an element


GROUPS = {"fixed": [("int", 4), ("float", 4)], "quantile": [("int", 4), ("quantile", 4)]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("group", list(GROUPS))
@pytest.mark.parametrize("where", ["slab", "whole"])
@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_a_non_finite_extreme_raises_before_a_block_constant(monkeypatch, bad, position, where,
                                                             group, workers):
    """A non-finite value at a block's first or last element raises the one message ahead of
    a block constant beyond binary16 in an earlier block of the same slab, and leaves every
    ErrorSums as constructed."""
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 256)  # 8 slabs of 4 blocks; whole: split
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    t = np.random.Generator(np.random.Philox(key=2223)).standard_normal((32, 64)).astype(
        np.float32)
    block_size = 64 if where == "slab" else None
    first = 5 * 64 if where == "slab" else 0  # the second block of the second slab, or all
    last = first + 63 if where == "slab" else t.size - 1
    flat = t.reshape(-1)
    flat[4 * 64 + 1 if where == "slab" else t.size // 2] = 70000.0  # its slab's first block
    flat[first if position == "first" else last] = bad
    configs = [QuantConfig(kind, bits, block_size) for kind, bits in GROUPS[group]]
    sums = [ErrorSums() for _ in configs]
    with pytest.raises(InvalidValueError) as caught:
        list(quantize_group(t, (), configs, sums=sums))
    assert str(caught.value) == MESSAGE
    for config_sums in sums:
        assert vars(config_sums) == vars(ErrorSums())


def test_the_block_constant_alone_is_reported(monkeypatch):
    """Without the non-finite value the same tensor fails on its block constant."""
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 256)
    t = np.random.Generator(np.random.Philox(key=2223)).standard_normal((32, 64)).astype(
        np.float32)
    t.reshape(-1)[4 * 64 + 1] = 70000.0
    for block_size in (64, None):
        with pytest.raises(InvalidValueError, match="block constant beyond the binary16"):
            quantize_tensor(t, None, QuantConfig("int", 4, block_size))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_whole_block_holds_one_float64_copy(monkeypatch, workers):
    """After a warm-up, a scored whole-block int4 quantize of a 2048x2048 float32 tensor peaks
    under 12 bytes an element: the block's one float64 array (8) and its codes (1). A cast
    kept beside a normalized copy would add 8."""
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    x = np.random.Generator(np.random.Philox(key=2224)).standard_normal((2048, 2048)).astype(
        np.float32)
    config = QuantConfig("int", 4)
    quantize_tensor(x, None, config, ErrorSums())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        q = quantize_tensor(x, None, config, ErrorSums())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert q.n_blocks == 1
    assert peak < 12 * x.size
