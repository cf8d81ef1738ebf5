"""What each sweep config costs: no packing for bit counts, exact thresholds in a few rounds,
a lookup that reads its first probe per cell.

`sweep` takes each config's bits from its KBQ section sizes (accounting.section_bytes), so it
never packs a code. Codebook.thresholds brackets each pair's boundary 4 ordered keys either side
of the pair's midpoint, or keeps the whole pair where that bracket fails; the 62-round bisection
over the whole pair that it replaced is the oracle here. lookup_indices reads each cell's first
probe from Codebook.first_bounds and equals searchsorted over the thresholds for every out.
"""

import itertools

import numpy as np
import pytest

from kbitq import accounting, cli, quantizer, read_container, write_container
from kbitq.codebooks import (
    Codebook,
    CodebookKind,
    QuantileSpec,
    _ordered_key,
    build_quantile_codebook,
)
from kbitq.quantizer import QuantConfig, lookup_indices

from test_cast_once import builtin_books, crowded_book, seeded_quantile_books
from test_cli import run_cli


def bisected_thresholds(values: np.ndarray) -> np.ndarray:
    """Codebook.thresholds as the whole-pair bisection built it: up to 62 rounds a book."""
    a, b = values[:-1], values[1:]
    lo, hi = _ordered_key(a.view(np.int64)), _ordered_key(b.view(np.int64))
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        x = _ordered_key(mid).view(np.float64)
        left = (x - a) <= (b - x)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return _ordered_key(lo).view(np.float64)


def pair_books():
    """Float-kind books (no zero code needed) of pairs that straddle zero, hold subnormals or
    sit one ulp apart."""
    tiny = 5e-324
    up, down = (lambda v: np.nextafter(v, np.inf)), (lambda v: np.nextafter(v, -np.inf))
    rows = {
        "straddle-zero": [-1.0, 1.0],
        "straddle-near-zero": [-1.0, -1e-300, 3e-308, 0.25, 1.0],
        "straddle-subnormals": [-1.0, -tiny, tiny, 1.0],
        "subnormals": [-1.0, 0.0, tiny, 2 * tiny, 3 * tiny, 2.5e-310, 2.2250738585072014e-308,
                       1.0],
        "negative-subnormals": [-1.0, -2.5e-310, -3 * tiny, -tiny, 0.0, 1.0],
        "one-ulp": [-1.0, up(-1.0), -0.25, up(-0.25), 1e-300, up(1e-300), 0.5, up(0.5),
                    down(1.0), 1.0],
    }
    return [(name, Codebook(CodebookKind.FLOAT, 8, np.array(v))) for name, v in rows.items()]


def near_bracket_misses(book: Codebook) -> int:
    """Pairs whose boundary is 4 or more ordered keys from their midpoint's: the bracket of
    4 keys either side may miss it."""
    a, b = book.values[:-1], book.values[1:]
    mid = _ordered_key((a + (b - a) / 2).view(np.int64))
    return int(np.count_nonzero(np.abs(_ordered_key(book.thresholds.view(np.int64)) - mid) >= 4))


def test_thresholds_equal_the_whole_pair_bisection():
    books = [*builtin_books(), *seeded_quantile_books(), ("crowded", crowded_book()),
             *pair_books()]
    assert len(books) == 48 + 300 + 1 + 6
    for name, book in books:
        t = book.thresholds
        expected = bisected_thresholds(book.values)
        assert t.dtype == np.float64 and not t.flags.writeable, name
        assert np.array_equal(t.view(np.int64), expected.view(np.int64)), name
    # the whole-pair fallback is taken: (-1, 1)'s boundary is 5.6e-17, not the midpoint 0
    assert near_bracket_misses(dict(books)["straddle-zero"]) == 1


LOOKUP_BOOKS = {
    **dict(builtin_books()),
    "quantile8-1-probe": build_quantile_codebook(
        QuantileSpec(8, np.random.Generator(np.random.Philox(key=25)).standard_normal(4000))),
    "quantile5-2-probes": build_quantile_codebook(
        QuantileSpec(5, np.random.Generator(np.random.Philox(key=25)).standard_cauchy(4000))),
    "crowded-8-probes": crowded_book(),
}


def lookup_values(book: Codebook) -> np.ndarray:
    """Each threshold and its float64 neighbours, +-0.0, +-1 and values beyond +-1."""
    t = book.thresholds
    edges = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                      1.5, -1.5, 1e300, -1e300, 1.7e308, -1.7e308])
    return np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), edges])


def test_lookup_books_cover_one_two_and_eight_probes():
    probes = {name: book.cells[2] for name, book in LOOKUP_BOOKS.items()}
    assert probes["quantile8-1-probe"] == 1 and probes["quantile5-2-probes"] == 2
    assert probes["crowded-8-probes"] == 8
    assert set(probes.values()) == set(range(1, 9))  # the float books take 1 to 8


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dtype", [np.uint8, np.intp, None], ids=["uint8", "intp", "None"])
def test_lookup_equals_searchsorted(monkeypatch, dtype, workers):
    """Looked up in three parts on the slab pool, in chunks of 97 values."""
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    monkeypatch.setattr(quantizer, "_CHUNK_ELEMENTS", 97)
    for name, book in LOOKUP_BOOKS.items():
        xs = lookup_values(book)
        expected = np.searchsorted(book.thresholds, xs, "left")
        cuts = [0, xs.size // 3, 2 * xs.size // 3, xs.size]
        if dtype is None:
            parts = quantizer._pooled(lambda lo, hi: lookup_indices(book, xs[lo:hi]),
                                      zip(cuts, cuts[1:]))
            got = np.concatenate(list(parts))
            assert got.dtype == np.intp, name
        else:
            got = np.full(xs.size, 255, dtype=dtype)
            list(quantizer._pooled(lambda lo, hi: lookup_indices(book, xs[lo:hi],
                                                                 out=got[lo:hi]),
                                   zip(cuts, cuts[1:])))
        assert np.array_equal(got, expected), name


def test_first_bounds_are_the_first_probe_of_each_cell():
    for name, book in LOOKUP_BOOKS.items():
        start, padded, probes = book.cells
        first = book.first_bounds
        assert first is book.first_bounds and first.size == start.size, name
        assert np.array_equal(first, padded[start.astype(np.intp) + (1 << (probes - 1)) - 1])


def chain():
    gen = np.random.Generator(np.random.Philox(key=2525))
    up = gen.standard_normal((48, 64))
    up[:, [3, 40]] *= 8.0  # down's rows 3 and 40 become outlier rows
    down = gen.standard_normal((64, 48)) + 0.5
    return {"up": up.astype(np.float32), "down": down.astype(np.float16),
            "bias": gen.standard_t(2, 50).astype(np.float32)}


def test_sweep_packs_no_codes(monkeypatch, tmp_path, capsys):
    """bits_per_param of each config equals total_model_bits of the tensors quantize makes,
    while pack_indices raises."""
    path = tmp_path / "chain.st"
    write_container(path, chain())
    tensors = dict(read_container(path).items())
    total = sum(a.size for a in tensors.values())
    grid = list(itertools.product(["int", "quantile"], [3, 8], [7, 64, None], [False, True],
                                  [0.0, 0.05]))
    expected = [accounting.total_model_bits(cli._quantize_all(tensors, QuantConfig(*c)).values())
                / total for c in grid]

    def refuse(*args):
        raise AssertionError("the sweep packed codes")

    monkeypatch.setattr(quantizer, "pack_indices", refuse)
    code, out, err = run_cli(capsys, "sweep", path, "--dtype", "int,quantile", "--bits", "3,8",
                             "--block-size", "7,64,whole", "--centered", "0,1",
                             "--outlier-p", "0,0.05")
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], int(r[1]), r[3], bool(int(r[4])), float(r[5])) for r in rows] == [
        (kind, k, str(block or "whole"), centered, p) for kind, k, block, centered, p in grid]
    assert [float(r[6]) for r in rows] == expected
    assert len(set(expected)) > len(grid) // 2  # the outlier rows and embedded books count
