"""Each thread's slab workspace (quantizer._scratch): slab tasks keep their slab-sized
temporaries in reusable per-thread buffers. A thread gets its buffers back from one tensor to
the next, pool threads never share one, no buffer outgrows a slab, a warm walk allocates
no slab-sized temporary, and every output repeats byte for byte at any number of workers."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kbitq import QuantConfig, dequantize_tensor, detect_outlier_dims, quantize_tensor, quantizer
from kbitq.accounting import ErrorSums
from kbitq.outliers import quantize_mixed
from test_slab_pool import sections


def buffers() -> dict[str, tuple[int, int]]:
    """(address, bytes) of each of this thread's workspace buffers, by slot."""
    return {slot: (buf.__array_interface__["data"][0], buf.nbytes)
            for slot, buf in vars(quantizer._workspace).items()}


def gaussian(shape, salt):
    return np.random.Generator(np.random.Philox(key=1818 + salt)).standard_normal(shape)


def test_a_thread_gets_its_buffers_back(monkeypatch):
    monkeypatch.setattr(quantizer, "_WORKERS", 1)  # the inline walk, on this thread
    config = QuantConfig(kind="float", bits=3, block_size=64, centered=True)
    x, y = gaussian((2, 700, 700), 0).astype(np.float32)
    q = quantize_tensor(x, None, config, ErrorSums())
    dequantize_tensor(q)
    first = buffers()
    assert first.keys() == {"x", "normalized", "spare", "index"}
    dequantize_tensor(quantize_tensor(y, None, config, ErrorSums()))
    assert buffers() == first


def test_a_fresh_thread_allocates_each_slot_once(monkeypatch):
    """A new thread's first scored walk (outlier stds, lookup, decoding, scoring, packing,
    then decoding the tensor) keeps each slot's first buffer: it has room for a slab of
    float64, the largest request, so no later request replaces it."""
    monkeypatch.setattr(quantizer, "_WORKERS", 1)  # the inline walk, on the new thread
    scratch, made, failed = quantizer._scratch, {}, []

    def recording(slot, n, dtype=np.float64):
        view = scratch(slot, n, dtype)
        if n <= quantizer._SLAB_ELEMENTS:  # held, so that no id is reused
            made.setdefault(slot, []).append(vars(quantizer._workspace)[slot])
        return view

    def walk():
        try:
            up, x = gaussian((300, 600), 6), gaussian((600, 1000), 7)
            up[:, ::97] *= 8.0
            dims = detect_outlier_dims([up, x], 0.02)[1]
            config = QuantConfig(kind="float", bits=3, block_size=64, centered=True)
            dequantize_tensor(quantize_mixed(x, dims, None, config, ErrorSums()))
        except BaseException as exc:  # reraised on the test's thread
            failed.append(exc)

    monkeypatch.setattr(quantizer, "_scratch", recording)
    thread = threading.Thread(target=walk)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if failed:
        raise failed[0]
    assert made.keys() == {"x", "normalized", "spare", "index"}
    assert {slot: len({id(buf) for buf in bufs}) for slot, bufs in made.items()} == {
        slot: 1 for slot in made}


def test_pool_threads_get_distinct_buffers(monkeypatch):
    monkeypatch.setattr(quantizer, "_WORKERS", 3)
    running = threading.Barrier(3)

    def task(i):
        running.wait(timeout=30)  # all three run at once, so on three threads
        quantizer._scratch("x", 1000)
        return threading.get_ident(), buffers()["x"][0]

    seen = list(quantizer._pooled(task, [(i,) for i in range(3)]))
    quantizer._scratch("x", 1000)
    threads, addresses = zip(*seen)
    assert len(set(threads)) == 3 and threading.get_ident() not in threads
    assert len({*addresses, buffers()["x"][0]}) == 4


def test_no_buffer_outgrows_a_slab(monkeypatch):
    """A whole block four slabs long is normalized whole, outside the workspace."""
    monkeypatch.setattr(quantizer, "_WORKERS", 1)
    x = gaussian((1000, 1000), 1).astype(np.float32)
    for centered in (False, True):
        config = QuantConfig(kind="int", bits=4, centered=centered)
        dequantize_tensor(quantize_tensor(x, None, config, ErrorSums()))
    assert max(size for _, size in buffers().values()) <= 8 * quantizer._SLAB_ELEMENTS


@pytest.mark.parametrize("config", [QuantConfig(kind="int", bits=4, block_size=64),
                                    QuantConfig(kind="float", bits=3, block_size=64,
                                                centered=True)], ids=["int4", "float3-centered"])
def test_warm_walk_allocates_no_slab_temporary(monkeypatch, config):
    """After a first tensor, quantizing a second of four slabs allocates its codes (1 byte an
    element), packed stream and its bytes (k/8 each) and per-block arrays: under 2.5 bytes an
    element, where one float64 slab temporary alone is 2 MiB. Decoding it to float32 adds
    only the output and its unpacked codes."""
    monkeypatch.setattr(quantizer, "_WORKERS", 1)
    x = gaussian((1024, 1024), 2).astype(np.float32)
    dequantize_tensor(quantize_tensor(x, None, config, ErrorSums()))
    tracemalloc.start()
    try:
        q = quantize_tensor(x, None, config, ErrorSums())
        quantize_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        dequantize_tensor(q, dtype=np.float32)
        dequantize_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert quantize_peak < 2.5 * x.size
    assert dequantize_peak < (4 + 1 + 0.5) * x.size


def test_outputs_repeat_under_thread_switching(monkeypatch):
    """Detection, a chain's mixed quantization scored while encoding, its decoding and
    rescoring, and a held two-config group, with threads switching every 10 microseconds."""
    up = gaussian((300, 2000), 3)
    up[:, ::97] *= 8.0
    down = (gaussian((2000, 300), 4) + 1.5).astype(np.float16)
    wide = gaussian((1000, 999), 5).astype(np.float32)
    config = QuantConfig(kind="float", bits=3, block_size=64, centered=True)
    group = [QuantConfig(kind="int", bits=4, block_size=64), QuantConfig("quantile", 8, 64)]

    def run():
        dims = detect_outlier_dims([up, down], 0.02)[1]
        scored, again = ErrorSums(), ErrorSums()
        q = quantize_mixed(down, dims, None, config, scored)
        again.add_quantized(down, q)
        sums = [ErrorSums(), ErrorSums()]
        grouped = [sections(g) for g in quantizer.quantize_group(wide, (), group, sums=sums)]
        return (dims.tobytes(), sections(q), dequantize_tensor(q).tobytes(), scored.report(0.5),
                again.report(0.5), grouped, [s.report(0.5) for s in sums])

    monkeypatch.setattr(quantizer, "_WORKERS", 1)
    inline = run()
    assert len(inline[0]) == 4 * 40  # 40 rows kept at 16 bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 3, 5):
            monkeypatch.setattr(quantizer, "_WORKERS", workers)
            assert run() == inline
    finally:
        sys.setswitchinterval(interval)
