"""Bit-cost arithmetic, error metrics, and correlation."""

import tracemalloc

import numpy as np
import pytest

from kbitq import (
    QuantConfig,
    bits_per_param,
    build_int_codebook,
    codebook_for,
    dequantize_tensor,
    error_metrics,
    pearson_correlation,
    quantize_tensor,
    total_model_bits,
)
from kbitq.accounting import ErrorSums, code_use
from kbitq.errors import (
    CorruptDataError,
    DimensionError,
    EmptyInputError,
    UndefinedCorrelationError,
)
from kbitq.quantizer import QuantizedTensor, pack_indices


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=99 + salt))


class TestBitsPerParam:
    def test_quarter_bit_block_overhead(self):
        b = bits_per_param(QuantConfig(kind="int", bits=4, block_size=64))
        assert b.total == 4.25
        assert b.block_overhead == 16 / 64

    def test_outlier_overhead_point_two_four(self):
        b = bits_per_param(QuantConfig(kind="int", bits=4, outlier_fraction=0.02))
        assert b.outlier_overhead == 0.24

    def test_no_overheads(self):
        b = bits_per_param(QuantConfig(kind="int", bits=8))
        assert b.total == 8.0

    def test_whole_tensor_charges_against_count_when_known(self):
        b = bits_per_param(QuantConfig(kind="int", bits=4), element_count=64)
        assert b.block_overhead == 0.25

    def test_centering_doubles_block_overhead(self):
        b = bits_per_param(QuantConfig(kind="int", bits=4, block_size=64, centered=True))
        assert b.centering_overhead == 0.25
        assert b.total == 4.5

    def test_monotone_in_block_size_and_fraction(self):
        totals = [
            bits_per_param(QuantConfig(kind="int", bits=4, block_size=b)).total
            for b in (1024, 256, 64, 16)
        ]
        assert totals == sorted(totals)
        fr = [
            bits_per_param(QuantConfig(kind="int", bits=4, outlier_fraction=p)).total
            for p in (0.0, 0.01, 0.02, 0.1)
        ]
        assert fr == sorted(fr)


class TestTotalModelBits:
    def test_hand_counted_single_block(self):
        config = QuantConfig(kind="int", bits=4, block_size=64)
        assert total_model_bits([(64, config)]) == 64 * 4 + 16

    def test_empty_model(self):
        assert total_model_bits([]) == 0

    def test_additivity(self):
        config = QuantConfig(kind="int", bits=5, block_size=32)
        one = total_model_bits([(1000, config)])
        assert total_model_bits([(1000, config), (1000, config)]) == 2 * one

    def test_pair_form_matches_tensor_form_without_outliers(self):
        config = QuantConfig(kind="int", bits=3, block_size=64, centered=True)
        x = rng(1).standard_normal(777)
        q = quantize_tensor(x, build_int_codebook(3), config)
        assert total_model_bits([q]) == total_model_bits([(777, config)])

    def test_rounds_index_payload_up_to_bytes(self):
        config = QuantConfig(kind="int", bits=3, block_size=64)
        # 7 elements * 3 bits = 21 bits -> 3 bytes
        assert total_model_bits([(7, config)]) == 24 + 16

    def test_positive_counts_required(self):
        with pytest.raises(EmptyInputError):
            total_model_bits([(0, QuantConfig(kind="int", bits=4))])


class TestErrorMetrics:
    def make_quantized(self, x, bits=4, block=64, kind="int"):
        config = QuantConfig(kind=kind, bits=bits, block_size=block)
        book = codebook_for(x, config)
        q = quantize_tensor(x, book, config)
        return q, dequantize_tensor(q, book)

    def test_lossless_sentinel(self):
        x = rng(2).choice([-1.0, 0.0, 1.0], size=128)
        x[0] = 1.0
        q, y = self.make_quantized(x, block=None)
        report = error_metrics(x, y, q)
        assert report.lossless and report.snr_db is None
        assert report.mse == 0.0

    def test_hand_computed_two_element_case(self):
        x = np.array([0.0, 1.0])
        q, _ = self.make_quantized(x, bits=2, block=None)
        report = error_metrics(x, np.array([0.0, 0.5]), q)
        assert report.mse == 0.125
        assert report.mae == 0.25
        assert report.max_abs_error == 0.5

    def test_full_utilization_of_sixteen_codes(self):
        x = rng(3).standard_normal(1 << 16)
        q, y = self.make_quantized(x, bits=4, block=64, kind="quantile")
        report = error_metrics(x, y, q)
        assert len(np.unique(q.indices())) == 16
        assert report.codebook_utilization == 1.0

    def test_zero_dimensional_tensor_scores_as_one_element(self):
        q, y = self.make_quantized(np.array(-2.5), block=None)
        one, _ = self.make_quantized(np.array([-2.5]), block=None)
        assert error_metrics(np.array(-2.5), y, q) == error_metrics(
            np.array([-2.5]), y.reshape(1), one)

    def test_shape_mismatch(self):
        x = rng(4).standard_normal(8)
        q, y = self.make_quantized(x)
        with pytest.raises(DimensionError):
            error_metrics(x[:4], y, q)

    def test_snr_matches_definition(self):
        x = rng(5).standard_normal(4096)
        q, y = self.make_quantized(x)
        report = error_metrics(x, y, q)
        expected = 10 * np.log10(np.mean(x**2) / np.mean((x - y) ** 2))
        assert report.snr_db == pytest.approx(expected, rel=1e-12)

    def test_code_outside_the_book_rejected_as_the_decoder_does(self):
        # a float4 book has 15 codes, so code 15 decodes to nothing
        x = rng(6).standard_normal(96)
        q, y = self.make_quantized(x, kind="float")
        assert code_use(q)[1] == 15
        q.packed_indices = pack_indices(np.full(q.n_quantized, 15), 4)
        for call in (lambda: error_metrics(x, y, q), lambda: code_use(q),
                     lambda: dequantize_tensor(q)):
            with pytest.raises(CorruptDataError, match="index 15 out of range"):
                call()


class TestErrorSumsMerge:
    def partials(self):
        a, b = rng(7).standard_normal(40), rng(8).standard_normal(40)
        codes = np.arange(40) % 5
        return ErrorSums.partial(a, b), ErrorSums.partial(a[::-1], b, codes + 3)

    def test_a_missing_mask_on_either_side_keeps_the_other(self):
        bare, marked = self.partials()
        for left, right in ((bare, marked), (marked, bare)):
            merged = ErrorSums.merge(left, right)
            assert merged[0] == 80 and merged[3] == max(bare[3], marked[3])
            assert np.array_equal(merged[5], marked[5])
            assert np.flatnonzero(merged[5]).tolist() == [3, 4, 5, 6, 7]

    def test_no_mask_on_either_side_stays_none(self):
        bare, _ = self.partials()
        merged = ErrorSums.merge(bare, bare)
        assert merged[:5] == (80, 2 * bare[1], 2 * bare[2], bare[3], 2 * bare[4])
        assert merged[5] is None

    def test_masks_on_both_sides_are_joined(self):
        _, marked = self.partials()
        other = ErrorSums.partial(np.zeros(2), np.zeros(2), np.array([0, 255]))
        merged = ErrorSums.merge(marked, other)
        assert np.flatnonzero(merged[5]).tolist() == [0, 3, 4, 5, 6, 7, 255]


class TestCodeUse:
    @pytest.mark.parametrize("bits", [3, 4, 8])
    @pytest.mark.parametrize("kind", ["int", "float", "dynamic", "quantile"])
    def test_counts_the_distinct_codes(self, kind, bits):
        x = rng(bits).standard_t(3, 3000)
        x[:500] = np.round(x[:500])  # repeats leave some codes unused at 8 bits
        q = quantize_tensor(x, None, QuantConfig(kind=kind, bits=bits, block_size=50))
        assert code_use(q) == (np.unique(q.indices()).size, len(codebook_for(x, q.config)))

    def test_marks_codes_without_copying_them(self):
        """A 2^22-code int4 tensor is counted in under 2 bytes per code: the unpacked codes
        and a mask of them, not an intp copy of every code."""
        n = 1 << 22
        codes = rng(9).integers(0, 15, n, dtype=np.uint8)
        q = QuantizedTensor((n,), QuantConfig(kind="int", bits=4, block_size=64),
                            pack_indices(codes, 4), n, np.ones(n // 64, np.float16), None,
                            np.zeros(0, np.int32), np.zeros(0, np.float16))
        tracemalloc.start()
        try:
            assert code_use(q) == (15, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n


class TestPearsonCorrelation:
    def test_perfect_linear(self):
        x = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson_correlation(x, 2 * x + 1) == 1.0
        assert pearson_correlation(x, -x) == -1.0

    def test_hand_computed_three_points(self):
        assert pearson_correlation([1, 2, 3], [1, 3, 2]) == 0.5

    def test_constant_sequence_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_affine_invariance(self):
        r = rng(6)
        x, y = r.standard_normal(500), r.standard_normal(500)
        base = pearson_correlation(x, y)
        assert pearson_correlation(3.5 * x + 2, y) == pytest.approx(base, abs=1e-12)
        assert pearson_correlation(x, 0.01 * y - 7) == pytest.approx(base, abs=1e-12)
