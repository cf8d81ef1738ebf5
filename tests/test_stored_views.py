"""Commands read F32/F16 tensors in place through the kept-row slab source.

Quantize, dequantize and inspect cast one slab of a stored tensor at a time. Their
bytes must equal the library's on the float64 cast, also when slabs end mid-row
between outlier rows; empty containers and 0-d tensors get exit codes, not tracebacks.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from kbitq import (
    accounting,
    cli,
    codebook_for,
    dequantize_tensor,
    detect_outlier_dims,
    quantize_mixed,
    quantize_tensor,
    quantizer,
    read_container,
    read_kbq,
    write_container,
    write_kbq,
)
from kbitq.quantizer import QuantConfig


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def chained(dtype):
    """up feeds down; up's planted columns make down's rows 3, 4 and 21 outlier rows.

    down's rows are 22 wide, so 48-element slabs end mid-row between kept rows.
    """
    gen = np.random.Generator(np.random.Philox(key=606))
    up = gen.standard_normal((10, 30))
    up[:, [3, 4, 21]] *= 9.0
    down = gen.standard_normal((30, 22)) + 1.5
    down[[3, 4, 21]] *= 20.0
    bias = gen.standard_t(3, 22)
    return {"up": up.astype(dtype), "down": down.astype(dtype), "bias": bias.astype(dtype)}


CONFIGS = [
    (kind, block, centered)
    for kind in ("int", "quantile")
    for block in (7, 64, None)
    for centered in (False, True)
]


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("kind, block, centered", CONFIGS)
def test_quantize_equals_library_on_float64_cast(capsys, tmp_path, monkeypatch, dtype, kind,
                                                 block, centered):
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 48)
    stored = chained(dtype)
    st, kbq = tmp_path / "in.st", tmp_path / "t.kbq"
    write_container(st, stored)
    flags = ["--dtype", kind, "--bits", 3, "--block-size", block or "whole", "--outlier-p", 0.1]
    code, out, _ = run_cli(capsys, "quantize", st, kbq, *flags, *(["--centered"] * centered))
    assert code == 0

    config = QuantConfig(kind=kind, bits=3, block_size=block, centered=centered,
                         outlier_fraction=0.1)
    x = {name: a.astype(np.float64) for name, a in stored.items()}
    dims = dict(zip(["up", "down"], detect_outlier_dims([x["up"], x["down"]], 0.1).per_layer))
    assert list(dims["down"]) == [3, 4, 21]
    expected = {}
    for name, a in x.items():
        if name in dims and dims[name].size:
            expected[name] = quantize_mixed(a, dims[name], codebook_for(a, config), config)
        else:
            expected[name] = quantize_tensor(a, None, config)
    write_kbq(expected, tmp_path / "expected.kbq")
    assert kbq.read_bytes() == (tmp_path / "expected.kbq").read_bytes()

    summaries = {}
    for name, q in expected.items():
        sums = accounting.ErrorSums()
        used, n_codes = sums.add_quantized(x[name], q)
        summaries[name] = {
            "shape": list(q.shape),
            "outlier_dims": int(q.outlier_dims.size),
            "bits_per_param": accounting.bits_per_param(q.config, q.element_count).as_dict(),
            "error": sums.report(used / n_codes).as_dict(),
        }
    assert json.loads(out) == {
        "output": str(kbq),
        "tensors": summaries,
        "total_model_bits": accounting.total_model_bits(expected.values()),
    }

    code, out, _ = run_cli(capsys, "inspect", kbq, "--against", st)
    assert code == 0
    assert {n: t["error"] for n, t in json.loads(out)["tensors"].items()} == {
        n: s["error"] for n, s in summaries.items()
    }

    code, _, _ = run_cli(capsys, "dequantize", kbq, tmp_path / "d.st")
    assert code == 0
    decoded = read_container(tmp_path / "d.st")
    for name, q in expected.items():
        want = dequantize_tensor(q).astype(np.float32)
        got = dequantize_tensor(q, dtype=np.float32)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert decoded.tensor(name).tobytes() == want.tobytes()
        if q.outlier_dims.size:
            assert np.array_equal(got[q.outlier_dims], q.outlier_rows.astype(np.float32))


@pytest.mark.parametrize("kind, block, centered", CONFIGS)
def test_scores_made_while_encoding_equal_the_decoded_ones(monkeypatch, kind, block, centered):
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 48)
    stored = chained(np.float16)
    config = QuantConfig(kind=kind, bits=3, block_size=block, centered=centered)
    for name, a in stored.items():
        dims = np.array([3, 4, 21] if name == "down" else [], dtype=np.int32)
        encoding, decoded = accounting.ErrorSums(), accounting.ErrorSums()
        if dims.size:
            q = quantize_mixed(a, dims, codebook_for(a, config), config, encoding)
        else:
            q = quantize_tensor(a, None, config, encoding)
        assert encoding.code_use == decoded.add_quantized(a, q) == accounting.code_use(q)
        assert vars(encoding) == vars(decoded)


def test_container_tensors_are_read_only_views(tmp_path):
    stored = chained(np.float16)
    write_container(tmp_path / "in.st", stored)
    container = read_container(tmp_path / "in.st")
    for name, arr in stored.items():
        view = container.tensor(name)
        assert view.dtype == np.float16 and not view.flags.writeable
        assert np.array_equal(view, arr)


@pytest.fixture
def empty_container(tmp_path):
    path = tmp_path / "empty.st"
    encoded = b"{}"
    path.write_bytes(struct.pack("<Q", len(encoded)) + encoded)
    return path


@pytest.mark.parametrize(
    "argv",
    [["sweep", "{}"], ["codebook", "--kind", "quantile", "--bits", "4", "--sample", "{}"]],
)
def test_empty_container_is_a_runtime_error(capsys, empty_container, argv):
    code, out, err = run_cli(capsys, *(a.format(empty_container) for a in argv))
    assert code == 1 and out == ""
    assert str(empty_container) in err and "no tensors" in err


def test_quantize_of_empty_container_writes_empty_kbq(capsys, tmp_path, empty_container):
    code, out, _ = run_cli(capsys, "quantize", empty_container, tmp_path / "t.kbq")
    assert code == 0 and json.loads(out)["tensors"] == {}
    assert read_kbq(tmp_path / "t.kbq") == {}


def test_zero_dimensional_tensor_round_trips(capsys, tmp_path):
    st, kbq, decoded = tmp_path / "s.st", tmp_path / "s.kbq", tmp_path / "d.st"
    write_container(st, {"scale": np.array(-2.5, np.float32), "v": np.arange(4, dtype=np.float16)})
    code, out, _ = run_cli(capsys, "quantize", st, kbq, "--bits", 4)
    assert code == 0
    entry = json.loads(out)["tensors"]["scale"]
    assert entry["shape"] == [] and entry["error"]["lossless"]
    code, out, _ = run_cli(capsys, "dequantize", kbq, decoded)
    assert code == 0 and json.loads(out)["tensors"]["scale"] == []
    assert read_container(decoded).tensor("scale").shape == ()
    assert read_container(decoded).tensor("scale")[()] == -2.5
    code, out, _ = run_cli(capsys, "inspect", kbq, "--against", st)
    assert code == 0
    assert json.loads(out)["tensors"]["scale"]["error"] == entry["error"]


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_stays_near_the_input_bytes(capsys, tmp_path):
    st, kbq = tmp_path / "big.st", tmp_path / "big.kbq"
    x = np.random.Generator(np.random.Philox(key=2048)).standard_normal((2048, 2048))
    write_container(st, {"w": x.astype(np.float32)})
    input_bytes = 2048 * 2048 * 4
    del x
    quantize_peak = traced_peak(["quantize", st, kbq, "--bits", 4, "--block-size", 64])
    dequantize_peak = traced_peak(["dequantize", kbq, tmp_path / "d.st"])
    capsys.readouterr()
    assert quantize_peak < 3 * input_bytes
    assert dequantize_peak < 2 * input_bytes
