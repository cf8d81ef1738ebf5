"""Outlier-dimension detection and mixed-precision quantization."""

import itertools
import warnings

import numpy as np
import pytest

from kbitq import (
    LayerChain,
    QuantConfig,
    build_float_codebook,
    build_int_codebook,
    codebook_for,
    dequantize_tensor,
    detect_outlier_dims,
    outliers,
    quantize_mixed,
    quantize_tensor,
    quantizer,
    write_container,
)
from kbitq.accounting import ErrorSums
from kbitq.codebooks import FloatSpec
from kbitq.errors import (
    DimensionError,
    EmptyInputError,
    InvalidFractionError,
    InvalidIndexError,
    InvalidSpecError,
)
from kbitq.quantizer import to_float16
from test_cli import run_cli


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=777 + salt))


def planted_chain(h, o, n_outliers, scale=20.0, salt=0):
    """Two-layer chain with n_outliers high-std hidden units in layer 0."""
    r = rng(salt)
    w0 = r.standard_normal((h, o))
    planted = np.sort(r.choice(o, size=n_outliers, replace=False))
    w0[:, planted] *= scale
    w1 = r.standard_normal((o, h))
    return LayerChain([w0, w1]), planted


class TestLayerChain:
    def test_adjacency_enforced(self):
        with pytest.raises(DimensionError):
            LayerChain([np.ones((4, 6)), np.ones((5, 3))])

    def test_needs_matrices(self):
        with pytest.raises(DimensionError):
            LayerChain([np.ones(4)])
        with pytest.raises(EmptyInputError):
            LayerChain([])


class TestDetection:
    def test_disabled_fraction_gives_empty_sets(self):
        chain, _ = planted_chain(32, 48, 3)
        detected = detect_outlier_dims(chain, 0.0)
        assert all(idx.size == 0 for idx in detected.per_layer)

    def test_first_layer_gets_no_treatment(self):
        chain, _ = planted_chain(32, 48, 3)
        detected = detect_outlier_dims(chain, 0.1)
        assert detected[0].size == 0

    def test_recovers_planted_columns(self):
        chain, planted = planted_chain(128, 96, 3, salt=1)
        detected = detect_outlier_dims(chain, 3 / 96)
        assert np.array_equal(detected[1], planted)

    def test_two_percent_of_thousand_units(self):
        r = rng(2)
        chain = LayerChain([r.standard_normal((64, 1000)), r.standard_normal((1000, 64))])
        detected = detect_outlier_dims(chain, 0.02)
        assert detected[1].size == 20

    def test_fraction_must_be_below_one(self):
        chain, _ = planted_chain(8, 8, 1)
        with pytest.raises(InvalidFractionError):
            detect_outlier_dims(chain, 1.0)

    def test_invariant_to_uniform_rescaling(self):
        chain, _ = planted_chain(64, 80, 4, salt=3)
        scaled = LayerChain([3.7 * w for w in chain.weights])
        a = detect_outlier_dims(chain, 0.05)
        b = detect_outlier_dims(scaled, 0.05)
        for left, right in zip(a.per_layer, b.per_layer):
            assert np.array_equal(left, right)

    def test_ties_break_toward_lower_index(self):
        # identical columns tie on std; the first round(p*o) indices win
        chain = LayerChain([np.ones((16, 10)), np.ones((10, 4))])
        detected = detect_outlier_dims(chain, 0.3)
        assert detected[1].tolist() == [0, 1, 2]

    def test_count_is_round_half_up(self):
        r = rng(4)
        chain = LayerChain([r.standard_normal((8, 10)), r.standard_normal((10, 8))])
        assert detect_outlier_dims(chain, 0.25)[1].size == 3  # 2.5 rounds up
        assert detect_outlier_dims(chain, 0.24)[1].size == 2

    def test_plain_list_of_matrices_accepted(self):
        r = rng(5)
        detected = detect_outlier_dims([r.standard_normal((8, 6)), r.standard_normal((6, 8))], 0.5)
        assert detected[1].size == 3


class TestEmptyLayer:
    """A chain layer with no weights is refused before any std is taken: a std over no rows
    is NaN, and numpy warns twice on the way."""

    @pytest.mark.parametrize("shapes, empty", [
        ([(0, 4), (4, 3)], 0), ([(5, 4), (4, 0), (0, 3)], 1), ([(5, 4), (4, 3), (3, 0)], 2)])
    def test_refused_before_any_std(self, monkeypatch, shapes, empty):
        def no_std(w):
            raise AssertionError("a std was taken")

        monkeypatch.setattr(outliers, "_column_stds", no_std)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInputError, match=f"layer {empty} is empty"):
                detect_outlier_dims([np.zeros(shape) for shape in shapes], 0.5)

    @pytest.mark.parametrize("command", ["quantize", "sweep"])
    def test_cli_reports_the_empty_tensor_alone(self, capsys, tmp_path, command):
        write_container(tmp_path / "in.st", {"up": np.zeros((0, 4), np.float32),
                                             "down": np.ones((4, 3), np.float32)})
        argv = [command, tmp_path / "in.st", "--outlier-p", "0.5"]
        if command == "quantize":
            argv.insert(2, tmp_path / "out.kbq")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(capsys, *argv)
        assert result == (1, "", f"kbitq {command}: cannot quantize an empty tensor\n")
        assert caught == []


class TestColumnSlabStd:
    """Detection takes each layer's std in column slabs of about one slab, on the slab pool;
    the stds equal numpy's whole-layer std in float64 bit for bit, at any number of workers."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(768, 3072), (3072, 768), (1, 5), (5, 1), (2, 300000)],
                             ids=["768x3072", "3072x768", "1x5", "5x1", "row-wider-than-a-slab"])
    def test_equals_the_whole_layer_std(self, monkeypatch, workers, dtype, shape):
        monkeypatch.setattr(quantizer, "_WORKERS", workers)
        w = (rng(shape[0]).standard_normal(shape) * 0.02 + 0.5).astype(dtype)
        w[:, ::97] *= 8.0
        stds = np.asarray(w, dtype=np.float64).std(axis=0)
        assert outliers._column_stds(w).tobytes() == stds.tobytes()
        count = int(np.floor(0.3 * shape[1] + 0.5))
        expected = np.sort(np.argsort(-stds, kind="stable")[:count])
        detected = detect_outlier_dims([w, np.ones((shape[1], 2), dtype)], 0.3)
        assert detected[1].tolist() == expected.tolist()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_split_of_a_narrow_layer(self, monkeypatch, workers):
        """A slab of 1 to 7 columns' elements over 2 to 40 columns: none holds a lone one."""
        monkeypatch.setattr(quantizer, "_WORKERS", workers)
        for h, step in itertools.product((300, 301), (1, 2, 3, 4, 5, 7)):
            monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", h * step)
            for o in range(2, 41):
                w = rng(o).standard_normal((h, o)) * 3.0 + 1e3
                stds = np.asarray(w, dtype=np.float64).std(axis=0)
                assert outliers._column_stds(w).tobytes() == stds.tobytes(), (h, o)

    def test_a_layer_of_another_layout_is_cast_whole(self):
        w = rng(14).standard_normal((3000, 700)).astype(np.float32).T  # rows not contiguous
        stds = np.asarray(w, dtype=np.float64).std(axis=0)
        assert outliers._column_stds(w).tobytes() == stds.tobytes()


class TestQuantizeMixed:
    def setup_method(self):
        self.config = QuantConfig(kind="int", bits=3, block_size=32, outlier_fraction=0.05)
        self.book = build_int_codebook(3)

    def test_empty_index_set_reduces_to_plain(self):
        w = rng(6).standard_normal((40, 30))
        plain_config = QuantConfig(kind="int", bits=3, block_size=32)
        mixed = quantize_mixed(w, [], self.book, plain_config)
        plain = quantize_tensor(w, self.book, plain_config)
        assert mixed == plain

    def test_all_rows_outlier_is_lossless_to_float16(self):
        w = rng(7).standard_normal((12, 9))
        q = quantize_mixed(w, np.arange(12), self.book, self.config)
        assert q.n_quantized == 0
        decoded = dequantize_tensor(q)
        assert np.array_equal(decoded, to_float16(w).astype(np.float64))

    def test_all_rows_outlier_with_whole_tensor_blocks(self):
        w = rng(7).standard_normal((6, 5))
        config = QuantConfig(kind="int", bits=3, outlier_fraction=0.9)
        q = quantize_mixed(w, np.arange(6), self.book, config)
        assert q.n_blocks == 0
        assert np.array_equal(dequantize_tensor(q), to_float16(w).astype(np.float64))

    def test_outlier_rows_restored_at_float16(self):
        w = rng(8).standard_normal((50, 20))
        dims = np.array([3, 17, 42])
        w[dims] *= 20.0
        q = quantize_mixed(w, dims, self.book, self.config)
        decoded = dequantize_tensor(q)
        assert np.array_equal(decoded[dims], to_float16(w[dims]).astype(np.float64))

    def test_mixed_precision_beats_plain_on_planted_rows(self):
        r = rng(9)
        w = r.standard_normal((256, 128))
        dims = np.sort(r.choice(256, size=8, replace=False))
        w[dims] *= 20.0
        q_mixed = quantize_mixed(w, dims, self.book, self.config)
        q_plain = quantize_tensor(w, self.book, QuantConfig(kind="int", bits=3, block_size=32))
        mse_mixed = np.mean((w - dequantize_tensor(q_mixed)) ** 2)
        mse_plain = np.mean((w - dequantize_tensor(q_plain)) ** 2)
        assert mse_mixed < mse_plain

    def test_outlier_rows_excluded_from_block_statistics(self):
        # a massive outlier row must not inflate any block constant
        w = rng(10).standard_normal((8, 4))
        w[2] = 1000.0
        q = quantize_mixed(w, [2], self.book, self.config)
        assert np.all(q.absmax.astype(np.float64) < 1000.0 / 20)

    def test_out_of_range_index_rejected(self):
        w = rng(11).standard_normal((10, 5))
        with pytest.raises(InvalidIndexError):
            quantize_mixed(w, [10], self.book, self.config)
        with pytest.raises(InvalidIndexError):
            quantize_mixed(w, [-1], self.book, self.config)

    def test_needs_a_matrix(self):
        with pytest.raises(DimensionError):
            quantize_mixed(np.ones(10), [0], self.book, self.config)


class TestCodebookChoice:
    """codebook None is the config's own book: quantize_mixed chooses it as codebook_for does."""

    @pytest.mark.parametrize("block", [32, None])
    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("kind", ["int", "float", "dynamic", "quantile"])
    def test_none_equals_codebook_for(self, kind, centered, block):
        w = rng(12).standard_normal((64, 48))
        dims = np.array([5, 20, 21])
        w[dims] *= 30.0
        config = QuantConfig(kind=kind, bits=4, block_size=block, centered=centered,
                             outlier_fraction=0.05)
        chosen, given = ErrorSums(), ErrorSums()
        q = quantize_mixed(w, dims, None, config, chosen)
        assert q == quantize_mixed(w, dims, codebook_for(w, config), config, given)
        assert vars(chosen) == vars(given) and chosen.code_use is not None

    @pytest.mark.parametrize("book", [build_int_codebook(3), build_int_codebook(4),
                                      build_float_codebook(FloatSpec(4, 3))],
                             ids=["other-width", "other-kind", "other-exponent"])
    def test_mismatched_codebook_rejected(self, book):
        w = rng(13).standard_normal((16, 8))
        config = QuantConfig(kind="float", bits=4, block_size=32)
        with pytest.raises(InvalidSpecError):
            quantize_tensor(w, book, config)
        with pytest.raises(InvalidSpecError):
            quantize_mixed(w, [2], book, config)
