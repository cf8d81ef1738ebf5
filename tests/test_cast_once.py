"""Each input is cast to float64 once, where it is used, and each table is built once.

`sweep` hands every tensor to the encoder as read, and each slab is cast into its thread's
workspace (quantizer._float64), so no float64 copy of a whole tensor lives through the
sweep. `codebook --sample` holds one float64 array of its sample, sorted in place, which
build_quantile_codebook neither casts nor sorts again. Codebook.cells finds its cell count
first and builds its table with one searchsorted; it equals the doubling search it replaced.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from kbitq import cli, codebooks, quantizer, synth, write_container
from kbitq.codebooks import (
    Codebook,
    CodebookKind,
    DynamicSpec,
    FloatSpec,
    QuantileSpec,
    build_dynamic_codebook,
    build_float_codebook,
    build_int_codebook,
    build_quantile_codebook,
    build_uint_codebook,
    cell_index,
)


@pytest.fixture(scope="module")
def student_t_container(tmp_path_factory):
    """One 1024x1024 student-t float32 tensor, as the sweep-grid benchmark draws it."""
    path = tmp_path_factory.mktemp("cast_once") / "w.st"
    x = synth.make_tensor("student-t", (1024, 1024), 1).astype(np.float32)
    write_container(path, {"w": x})
    return path, x.size


def traced_peak(argv) -> int:
    """Traced peak of an in-process cli.main(argv) after a warm-up run, above what was held."""

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(a) for a in argv]) == 0

    run()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_holds_no_float64_copy_of_its_input(monkeypatch, student_t_container, workers):
    """Int, float and quantile at 3, 4 and 8 bits, B in {64, whole}: under 22 bytes an element.
    A float64 copy of the float32 input held through the sweep adds 8 (27.6 in all)."""
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    path, size = student_t_container
    peak = traced_peak(["sweep", path, "--dtype", "int,float,quantile", "--bits", "3,4,8",
                        "--block-size", "64,whole"])
    assert peak < 22 * size


def test_codebook_sample_is_one_float64_copy(student_t_container):
    """The sample's one float64 array (8 bytes an element) and its byte-sized temporaries stay
    under 12 bytes an element; a second float64 copy, cast or sorted, adds 8 (20.0 in all)."""
    path, size = student_t_container
    assert traced_peak(["codebook", "--kind", "quantile", "--bits", "8", "--sample", path]) \
        < 12 * size


def doubling_cells(book: Codebook):
    """Codebook.cells as the doubling search built it: the table at each cell count n from 2
    up to 2^16 until no cell holds two thresholds."""
    t = book.thresholds
    for n in (1 << e for e in range(1, 17)):
        start = np.searchsorted(cell_index(t, n), np.arange(n + 1))
        crowd = int(np.max(np.diff(start, append=t.size)))
        if crowd <= 1:
            break
    probes = crowd.bit_length()
    return start.astype(np.uint8), np.append(t, np.full((1 << probes) - 1, np.inf)), probes


def builtin_books():
    for k in range(codebooks.MIN_BITS, codebooks.MAX_BITS + 1):
        yield f"int{k}", build_int_codebook(k)
        yield f"uint{k}", build_uint_codebook(k)
        yield f"dynamic{k}", build_dynamic_codebook(DynamicSpec(k))
        for e in range(1, k) if k >= 3 else ():
            yield f"float{k}-e{e}", build_float_codebook(FloatSpec(k, e))


def seeded_quantile_books(count: int = 300):
    gen = np.random.Generator(np.random.Philox(key=2424))
    draws = (gen.standard_normal, gen.standard_cauchy, gen.laplace, gen.exponential)
    for i in range(count):
        sample = draws[i % len(draws)](size=int(gen.integers(20, 3000)))
        bits = int(gen.integers(codebooks.MIN_BITS, codebooks.MAX_BITS + 1))
        yield f"quantile-{i}", build_quantile_codebook(QuantileSpec(bits, sample))


def crowded_book():
    """253 thresholds inside one of 2^16 cells: the search ends at 2^16 with 8 probes."""
    values = np.concatenate([[-1.0, 0.0], 1e-9 * np.arange(1, 254), [1.0]])
    return Codebook(CodebookKind.QUANTILE, 8, values)


def test_cells_equal_the_doubling_search():
    books = [*builtin_books(), *seeded_quantile_books(), ("crowded", crowded_book())]
    assert len(books) == 48 + 300 + 1
    for name, book in books:
        start, padded, probes = book.cells
        ref_start, ref_padded, ref_probes = doubling_cells(book)
        assert start.dtype == ref_start.dtype and np.array_equal(start, ref_start), name
        assert np.array_equal(padded, ref_padded) and probes == ref_probes, name
    assert books[-1][1].cells[0].size == (1 << 16) + 1 and books[-1][1].cells[2] == 8


def test_float64_pieces_are_cast_into_the_workspace():
    """_float64 casts every slab into this thread's workspace, a float64 one too, so its
    result never aliases the caller's tensor."""
    t = np.arange(12.0).reshape(3, 4)
    pieces = [t.reshape(-1)[2:9]]
    x = quantizer._float64(pieces)
    assert x.dtype == np.float64 and np.array_equal(x, pieces[0])
    assert not np.shares_memory(x, t)
    assert np.shares_memory(x, quantizer._scratch("x", x.size))
