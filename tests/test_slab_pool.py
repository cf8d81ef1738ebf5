"""The slab pool: encoding, decoding, scoring and packing give the same bytes at any number
of workers. Each test sets the worker count through quantizer._WORKERS; one worker, or a
walk of one slab, runs inline on the caller and starts no thread."""

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from kbitq import QuantConfig, dequantize_tensor, pack_indices, quantize_tensor, write_container
from kbitq import quantizer, unpack_indices
from kbitq.accounting import ErrorSums
from kbitq.errors import InvalidValueError
from test_cli import assert_one_line_error, run_cli

WORKERS = (2, 3)


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """wide: four slabs and a short last block at B=7 (999000 = 7 * 142714 + 2);
    up -> down: a chain whose down gets outlier rows and spans two slabs."""
    gen = np.random.Generator(np.random.Philox(key=1414))
    up = gen.standard_normal((48, 600))
    up[:, [5, 333]] *= 8.0
    down = gen.standard_normal((600, 500)) + 1.5
    down[[5, 333]] *= 30.0
    path = tmp_path_factory.mktemp("pool") / "in.st"
    write_container(path, {"wide": gen.standard_normal((1000, 999)).astype(np.float32),
                           "up": up.astype(np.float32), "down": down.astype(np.float16)})
    return path


def outputs(capsys, monkeypatch, workers, commands, written=()):
    """Exit code, stdout and stderr of each command, then the bytes of each written file."""
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    return [run_cli(capsys, *argv) for argv in commands], [p.read_bytes() for p in written]


def sections(q):
    """Every KBQ section of q as bytes, so -0.0 and +0.0 differ."""
    return {name: None if a is None else a.tobytes() for name, a in q.sections().items()}


@pytest.mark.parametrize("flags", [
    ["--dtype", "int", "--bits", 4, "--block-size", 64],
    ["--dtype", "float", "--bits", 3, "--block-size", 7, "--centered", "--outlier-p", 0.02],
    ["--dtype", "quantile", "--bits", 4, "--block-size", "whole", "--outlier-p", 0.02],
    ["--dtype", "quantile", "--bits", 8, "--block-size", 7],
    ["--dtype", "dynamic", "--bits", 5, "--block-size", 100, "--centered"],
], ids=["int4-b64", "float3-b7-centered-outliers", "quantile4-whole-outliers",
        "quantile8-b7", "dynamic5-b100-centered"])
def test_quantize_dequantize_inspect_repeat_byte_for_byte(capsys, monkeypatch, tmp_path,
                                                          source, flags):
    kbq, decoded = tmp_path / "t.kbq", tmp_path / "t.st"
    commands = [["quantize", source, kbq, *flags], ["dequantize", kbq, decoded],
                ["inspect", kbq, "--against", source]]
    inline = outputs(capsys, monkeypatch, 1, commands, [kbq, decoded])
    assert [code for code, *_ in inline[0]] == [0, 0, 0]
    for workers in WORKERS:
        assert outputs(capsys, monkeypatch, workers, commands, [kbq, decoded]) == inline


def test_sweep_csv_repeats_byte_for_byte(capsys, monkeypatch, source):
    argv = ["sweep", source, "--dtype", "int,quantile", "--bits", "3,8",
            "--block-size", "7,whole", "--centered", "1", "--outlier-p", "0,0.02"]
    inline = outputs(capsys, monkeypatch, 1, [argv])
    assert inline[0][0][0] == 0
    for workers in WORKERS:
        assert outputs(capsys, monkeypatch, workers, [argv]) == inline


@pytest.mark.parametrize("dims", [[3, 17], []], ids=["outlier-rows", "no-outlier-rows"])
def test_small_slabs_repeat_byte_for_byte(monkeypatch, dims):
    """Hundreds of slabs and lane ranges, a short last block, centering, held slabs, a
    quantile book, scores taken while encoding and after, and outlier rows."""
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 56)
    x = np.random.default_rng(5).standard_normal((40, 301))
    x[[3, 17]] *= 40.0
    configs = [QuantConfig(kind=kind, bits=4, block_size=7, centered=True)
               for kind in ("float", "quantile")]

    def run():
        sums = [ErrorSums(), ErrorSums()]
        found = []
        for q, scored in zip(quantizer.quantize_group(x, dims, configs, sums=sums), sums):
            again = ErrorSums()
            again.add_quantized(x, q)
            found.append((sections(q), dequantize_tensor(q).tobytes(),
                          unpack_indices(q.packed_indices, 4, q.n_quantized).tobytes(),
                          scored.report(0.5), again.report(0.5), scored.code_use))
        return found

    monkeypatch.setattr(quantizer, "_WORKERS", 1)
    inline = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, more of them than CPUs
    try:
        for workers in (2, 3, 5):
            monkeypatch.setattr(quantizer, "_WORKERS", workers)
            assert run() == inline
    finally:
        sys.setswitchinterval(interval)


def test_overflowing_block_in_a_middle_slab_raises_the_same_error(capsys, monkeypatch, tmp_path):
    x = np.random.default_rng(9).standard_normal((1000, 1000)).astype(np.float32)
    x[500, 10] = 70000.0  # in the second of four slabs; its block constant reaches 65520
    write_container(tmp_path / "big.st", {"w": x})
    kbq = tmp_path / "t.kbq"
    argv = ["quantize", tmp_path / "big.st", kbq, "--bits", 4, "--block-size", 64]
    seen = []
    for workers in (1, *WORKERS):
        monkeypatch.setattr(quantizer, "_WORKERS", workers)
        with pytest.raises(InvalidValueError) as caught:
            quantize_tensor(x, None, QuantConfig(kind="int", bits=4, block_size=64))
        result = run_cli(capsys, *argv)
        assert_one_line_error(result, 1, "quantize")
        assert not kbq.exists()
        seen.append((str(caught.value), result))
    assert seen[1:] == seen[:1] * len(WORKERS)
    assert "block constant" in seen[0][0]


def test_one_worker_or_one_slab_starts_no_thread(monkeypatch):
    def no_pool(*args):
        raise AssertionError("a pool was asked for")

    monkeypatch.setattr(quantizer, "_pool", no_pool)
    x = np.random.default_rng(2).standard_normal((700, 700))
    config = QuantConfig(kind="int", bits=4, block_size=64)
    monkeypatch.setattr(quantizer, "_WORKERS", 1)
    dequantize_tensor(quantize_tensor(x, None, config))  # several slabs, inline
    monkeypatch.setattr(quantizer, "_WORKERS", 4)
    dequantize_tensor(quantize_tensor(x[:100], None, config))  # one slab, inline
    packed = pack_indices(np.zeros(1000, np.uint8), 4)
    assert packed.dtype == np.uint8 and np.array_equal(packed, np.zeros(500, np.uint8))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_pool(monkeypatch):
    monkeypatch.setattr(quantizer, "_WORKERS", 2)
    x = np.random.default_rng(4).standard_normal((700, 700))
    config = QuantConfig(kind="int", bits=4, block_size=64)
    packed = quantize_tensor(x, None, config).packed_indices  # the parent's pool now runs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
        pid = os.fork()
    if pid == 0:  # the parent's pool threads do not exist here
        signal.alarm(60)
        again = quantize_tensor(x, None, config).packed_indices
        os._exit(0 if again.dtype == packed.dtype and np.array_equal(again, packed) else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


class TestBlockBroadcast:
    """_normalize and _decode broadcast each block's constant over a view of whole blocks and
    the short last block; the bytes equal those of the np.repeat form, dead blocks +0.0."""

    @staticmethod
    def repeat_normalize(x, block_size, centered):
        starts = np.arange(0, x.size, block_size)
        counts = np.diff(np.append(starts, x.size))
        means16 = None
        if centered:
            means16 = quantizer.to_float16(np.add.reduceat(x, starts) / counts)
            x = x - np.repeat(means16.astype(np.float64), counts)
        absmax16 = quantizer.to_float16(np.maximum.reduceat(np.abs(x), starts))
        live = absmax16 > 0
        normalized = x / np.repeat(np.where(live, absmax16.astype(np.float64), 1.0), counts)
        normalized[np.repeat(~live, counts)] = 0.0
        return normalized, absmax16, means16

    @pytest.mark.parametrize("block_size", [7, 64, 1000])
    @pytest.mark.parametrize("centered", [False, True])
    def test_equals_the_repeat_form(self, block_size, centered):
        x = np.random.default_rng(block_size).standard_normal(1000) * 3.0
        for dead in (slice(0, 7), slice(994, 1000), slice(448, 512)):  # dead blocks at B=7 or 64
            x[dead] = np.where(np.arange(dead.stop - dead.start) % 2, -0.0, 1e-9)
        got = quantizer._normalize(x, block_size, centered)
        expected = self.repeat_normalize(x, block_size, centered)
        assert [None if a is None else a.tobytes() for a in got] == [
            None if a is None else a.tobytes() for a in expected]
        book = quantizer._fixed_codebook(quantizer.CodebookKind.INT, 4, None)
        codes = quantizer.lookup_indices(book, got[0])
        n_blocks = -(-x.size // block_size)
        counts = np.diff(np.append(np.arange(0, x.size, block_size), x.size))
        decoded = book.values[codes] * np.repeat(got[1].astype(np.float64), counts)
        if centered:
            decoded += np.repeat(got[2].astype(np.float64), counts)
        assert quantizer._decode(book, codes, got[1], got[2], slice(0, n_blocks),
                                 block_size).tobytes() == decoded.tobytes()


class TestPooled:
    """quantizer._pooled: results in item order, few items in flight, the first error wins."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_results_in_item_order(self, monkeypatch, workers):
        monkeypatch.setattr(quantizer, "_WORKERS", workers)

        def slow_square(i):
            time.sleep(0.001 * (i % 3))
            return i * i

        assert list(quantizer._pooled(slow_square, ((i,) for i in range(20)))) == [
            i * i for i in range(20)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_items_in_flight(self, monkeypatch, workers):
        monkeypatch.setattr(quantizer, "_WORKERS", workers)
        pulled = []

        def items():
            for i in range(30):
                pulled.append(i)
                yield (i,)

        for received, _ in enumerate(quantizer._pooled(lambda i: i, items()), start=1):
            assert len(pulled) <= received + workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failure_in_item_order_raises_and_later_items_never_start(
            self, monkeypatch, workers):
        monkeypatch.setattr(quantizer, "_WORKERS", workers)
        started, lock = [], threading.Lock()

        def fn(i):
            with lock:
                started.append(i)
            if i == 3:
                time.sleep(0.05)  # item 5 fails first in time, item 3 first in order
                raise ValueError("item 3")
            if i == 5:
                raise KeyError("item 5")
            return i

        with pytest.raises(ValueError, match="item 3"):
            list(quantizer._pooled(fn, ((i,) for i in range(50))))
        assert max(started) <= 2 + workers
