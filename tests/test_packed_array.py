"""Packed codes are a 1-D uint8 array, the KBQ_SECTIONS["indices"] section, like the other five.

pack_indices returns its stream array, with no second copy of it; validate, write_kbq and
dequantize_tensor check packed_indices as they check every section, so a wrong type is
refused naming the section, and any 1-D uint8 array, strided or read-only, decodes and
writes exactly.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from kbitq import (QuantConfig, dequantize_tensor, pack_indices, quantize_mixed, quantize_tensor,
                   read_kbq, unpack_indices, write_kbq)
from kbitq.errors import CorruptDataError
from kbitq.quantizer import KBQ_SECTIONS, quantize_group


def test_pack_traces_little_more_than_its_stream():
    n = 1 << 24
    codes = np.random.default_rng(28).integers(0, 16, n, dtype=np.uint8)
    pack_indices(codes, 4)  # warm-up: each thread's workspace is made once and kept
    tracemalloc.start()
    try:
        packed = pack_indices(codes, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(packed) == n // 2
    assert peak <= 1.25 * len(packed), peak / len(packed)


@pytest.fixture(scope="module")
def q():
    x = np.random.default_rng(29).standard_normal((24, 40))
    return quantize_mixed(x, [5], None, QuantConfig("int", 3, 16, centered=True))


def test_every_packer_and_reader_holds_a_uint8_array(q, tmp_path):
    x, config = np.random.default_rng(30).standard_normal((24, 40)), QuantConfig("int", 3, 16)
    write_kbq({"w": q}, tmp_path / "w.kbq")
    made = [q, quantize_tensor(x, None, config), *quantize_group(x, [5], [config, config]),
            read_kbq(tmp_path / "w.kbq")["w"]]
    for t in made:
        held = t.packed_indices
        assert type(held) is np.ndarray and held.dtype == KBQ_SECTIONS["indices"]
        assert held.ndim == 1 and held.size == -(-t.n_quantized * 3 // 8)
    assert type(pack_indices([], 3)) is np.ndarray


def test_bytes_are_refused_naming_the_section(q, tmp_path):
    bad = dataclasses.replace(q, packed_indices=q.packed_indices.tobytes())
    for call in (bad.validate, lambda: dequantize_tensor(bad),
                 lambda: write_kbq({"w": bad}, tmp_path / "w.kbq")):
        with pytest.raises(CorruptDataError, match="^indices holds bytes, not uint8$"):
            call()
    assert list(tmp_path.iterdir()) == []


def strided(a: np.ndarray) -> np.ndarray:
    spread = np.zeros(2 * a.size, np.uint8)
    spread[::2] = a
    return spread[::2]


def read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("view", [strided, read_only], ids=["strided", "read-only"])
def test_a_uint8_view_decodes_and_writes_exactly(q, tmp_path, view):
    held = dataclasses.replace(q, packed_indices=view(q.packed_indices))
    held.validate()
    assert np.array_equal(held.indices(), unpack_indices(q.packed_indices, 3, q.n_quantized))
    assert dequantize_tensor(held).tobytes() == dequantize_tensor(q).tobytes()
    write_kbq({"w": q}, tmp_path / "q.kbq")
    write_kbq({"w": held}, tmp_path / "held.kbq")
    assert (tmp_path / "held.kbq").read_bytes() == (tmp_path / "q.kbq").read_bytes()
    assert read_kbq(tmp_path / "held.kbq")["w"] == q
