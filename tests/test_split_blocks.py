"""Blocks longer than one slab: each is normalized whole, then split into leaves of at most
one slab along numpy's pairwise-sum tree, which run on the slab pool. The outputs repeat the
one-thread walk byte for byte, and the leaves' error sums, merged along the tree, are the
sums numpy takes over the whole block."""

import hashlib
import json
import sys

import numpy as np
import pytest

from kbitq import QuantConfig, dequantize_tensor, quantizer, write_container
from kbitq.accounting import ErrorSums
from test_cli import run_cli
from test_slab_pool import sections

WORKERS = (1, 2, 3)
SWEEP = ["sweep", "in.st", "--dtype", "int,quantile", "--bits", "3,8",
         "--block-size", "300000,whole", "--centered", "0,1", "--outlier-p", "0,0.02"]
# sha256 over every call's exit code, stdout and stderr, then each file it wrote,
# recorded from the one-slab-per-task walk that ran before blocks were split
PINNED = {
    "int4-whole":
        "fd809e556a615a222748f678170121aa097f03cc15022f570b3828d3f10b1243",
    "quantile4-whole-centered-outliers":
        "a06660dddcd42b701da3c45fd708d7993d7fc7d2c427b1a5abeb04c7c83f36e4",
    "float3-b300000-centered":
        "df0c12469c60210eb7fa54c13cff751befad4f42e0488d9d6574fa6a9f18a36b",
    "dynamic5-b300000-outliers":
        "1f08104285c4f1a87e3154688ab6b3cdd35f096965ee7f4c383ad63e26359fe2",
    "quantile8-whole":
        "91a90a9ad904e222b026abb61643595d1eae4cb18c6a0f2762f0e1e38b1f5e8f",
    "sweep":
        "ee4aa6c83190cc6be3e3916175367033b822ec04a0c1bf53d2d3dbe61f2b5a30",
}


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """wide: one whole block of 999000 elements (four leaves); mid: 700000 elements, so
    B=300000 ends in a block of 100000; up -> down: a chain whose down keeps 294000
    elements (two leaves) between its 12 outlier rows."""
    gen = np.random.Generator(np.random.Philox(key=1515))
    up = gen.standard_normal((48, 600))
    up[:, [5, 50, 333, 334]] *= 8.0
    down = gen.standard_normal((600, 500)) + 1.5
    down[[5, 50, 333, 334]] *= 30.0
    path = tmp_path_factory.mktemp("split") / "in.st"
    write_container(path, {"wide": gen.standard_normal((1000, 999)).astype(np.float32),
                           "mid": gen.standard_t(3, (700, 1000)).astype(np.float32),
                           "up": up.astype(np.float32), "down": down.astype(np.float16)})
    return path


def digest(capsys, monkeypatch, workers, commands, written=()):
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    calls = [run_cli(capsys, *argv) for argv in commands]
    h = hashlib.sha256(json.dumps(calls).encode())
    for name in written:
        with open(name, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("case, flags", [
    ("int4-whole", ["--dtype", "int", "--bits", "4", "--block-size", "whole"]),
    ("quantile4-whole-centered-outliers", ["--dtype", "quantile", "--bits", "4",
                                           "--block-size", "whole", "--centered",
                                           "--outlier-p", "0.02"]),
    ("float3-b300000-centered", ["--dtype", "float", "--bits", "3", "--block-size", "300000",
                                 "--centered"]),
    ("dynamic5-b300000-outliers", ["--dtype", "dynamic", "--bits", "5",
                                   "--block-size", "300000", "--outlier-p", "0.02"]),
    ("quantile8-whole", ["--dtype", "quantile", "--bits", "8", "--block-size", "whole"]),
])
def test_quantize_dequantize_inspect_match_the_pinned_bytes(capsys, monkeypatch, source,
                                                            case, flags):
    monkeypatch.chdir(source.parent)
    commands = [["quantize", "in.st", "t.kbq", *flags], ["dequantize", "t.kbq", "d.st"],
                ["inspect", "t.kbq", "--against", "in.st"]]
    for workers in WORKERS:
        assert digest(capsys, monkeypatch, workers, commands, ["t.kbq", "d.st"]) == PINNED[case]


def test_sweep_csv_matches_the_pinned_bytes(capsys, monkeypatch, source):
    monkeypatch.chdir(source.parent)
    for workers in WORKERS:
        assert digest(capsys, monkeypatch, workers, [SWEEP]) == PINNED["sweep"]


class TestPairwiseTree:
    """quantizer._pairwise_tree halves n as numpy's pairwise_sum does, down to one slab."""

    @pytest.mark.parametrize("n", [2**18 + 1, 600000, 999000, 2**20, 5000001])
    def test_leaf_partials_merged_along_the_tree_equal_one_partial(self, n):
        """The assumption the split rests on: numpy sums a contiguous float64 array
        pairwise, halving it as _pairwise_tree does. A numpy that sums otherwise fails
        here, instead of moving the last digits of the sweep's error columns."""
        gen = np.random.default_rng(n)
        a = gen.standard_t(2, n) * 100.0
        b = a + gen.standard_normal(n) * np.abs(a) * 0.1
        codes = gen.integers(0, 256, n, dtype=np.uint8)
        sizes = quantizer._leaf_sizes(quantizer._pairwise_tree(n))
        edges = np.cumsum([0, *sizes])
        assert len(sizes) > 1 and max(sizes) <= quantizer._SLAB_ELEMENTS
        leaves = [ErrorSums.partial(a[lo:hi], b[lo:hi], codes[lo:hi])
                  for lo, hi in zip(edges, edges[1:])]
        (merged,) = quantizer._merged(leaves, n, n, ErrorSums.merge)
        whole = ErrorSums.partial(a, b, codes)
        assert merged[:5] == whole[:5] and np.array_equal(merged[5], whole[5])

    @pytest.mark.parametrize("n", [1, 128, 129, 2**18, 2**18 + 1, 999000, 5000001])
    def test_left_half_is_half_rounded_down_to_eight(self, n):
        def check(tree, n):
            if isinstance(tree, int):
                return tree == n
            half = sum(quantizer._leaf_sizes(tree[0]))
            return half == n // 2 - n // 2 % 8 and check(tree[0], half) and check(tree[1], n - half)

        assert check(quantizer._pairwise_tree(n), n)

    def test_no_leaf_is_cut_where_numpy_does_not_halve(self, monkeypatch):
        monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 56)
        assert quantizer._pairwise_tree(128) == 128
        assert quantizer._pairwise_tree(300) == ((72, 72), (72, 84))


@pytest.mark.parametrize("block_size", [None, 3000], ids=["whole", "b3000"])
@pytest.mark.parametrize("centered", [False, True], ids=["uncentered", "centered"])
def test_small_leaves_repeat_one_task_per_block(monkeypatch, block_size, centered):
    """With slabs of 1000 elements every block is split, across outlier rows and into a short
    last block; codes, constants, decodes and error sums equal those of one task per block."""
    x = np.random.default_rng(7).standard_t(3, (60, 337))
    x[[4, 9]] *= 25.0
    configs = [QuantConfig(kind=kind, bits=4, block_size=block_size, centered=centered)
               for kind in ("int", "quantile")]

    def run():  # the int config alone normalizes its blocks as it encodes; the pair holds them
        found = []
        for group in (configs[:1], configs):
            sums = [ErrorSums() for _ in group]
            for q, scored in zip(quantizer.quantize_group(x, [4, 9], group, sums=sums), sums):
                again = ErrorSums()
                again.add_quantized(x, q)
                found.append((sections(q), dequantize_tensor(q).tobytes(), vars(scored),
                              vars(again)))
        return found

    monkeypatch.setattr(quantizer, "_WORKERS", 1)
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", block_size or x.size)  # a block a slab
    one_task = run()
    monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 1000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, more of them than CPUs
    try:
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(quantizer, "_WORKERS", workers)
            assert run() == one_task
    finally:
        sys.setswitchinterval(interval)
