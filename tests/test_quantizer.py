"""Quantize/dequantize round trips, nearest-code lookup, and bit packing."""

import dataclasses

import numpy as np
import pytest

from kbitq import (
    CodebookKind,
    DynamicSpec,
    QuantConfig,
    QuantileSpec,
    build_dynamic_codebook,
    build_float_codebook,
    build_int_codebook,
    build_quantile_codebook,
    codebook_for,
    default_exponent_bits,
    dequantize_tensor,
    lookup_indices,
    pack_indices,
    quantize_tensor,
    unpack_indices,
)
from kbitq import quantizer
from kbitq.codebooks import Codebook, FloatSpec, build_uint_codebook
from kbitq.errors import (
    CorruptDataError,
    EmptyInputError,
    InvalidFractionError,
    InvalidSpecError,
    InvalidValueError,
    LengthError,
    PrecisionRangeError,
)
from kbitq.outliers import quantize_mixed
from kbitq.quantizer import QuantizedTensor, to_float16

RNG_KEY = 1234


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=RNG_KEY + salt))


def codebook_for_kind(kind, k, sample=None):
    if kind == "int":
        return build_int_codebook(k)
    if kind == "float":
        return build_float_codebook(FloatSpec(k, default_exponent_bits(k)))
    if kind == "dynamic":
        return build_dynamic_codebook(DynamicSpec(k))
    return build_quantile_codebook(QuantileSpec(k, sample))


def brute_force_lookup(values, xs):
    return np.argmin(np.abs(xs[:, None] - values[None, :]), axis=1)


class TestLookup:
    def test_exact_member_int8(self):
        book = build_int_codebook(8)
        idx = lookup_indices(book, np.asarray(83 / 127))
        assert book.values[idx] == 83 / 127

    def test_zero_maps_to_zero_code(self):
        for book in (build_int_codebook(5), build_dynamic_codebook(DynamicSpec(4))):
            assert book.values[lookup_indices(book, np.asarray(0.0))] == 0.0

    def test_tie_breaks_toward_smaller_index(self):
        book = build_int_codebook(2)  # values [-1, 0, 1]
        assert lookup_indices(book, np.asarray(0.5)) == 1
        assert lookup_indices(book, np.asarray(-0.5)) == 0

    def test_out_of_range_clamps(self):
        book = build_int_codebook(4)
        assert lookup_indices(book, np.asarray(7.3)) == len(book) - 1
        assert lookup_indices(book, np.asarray(-2.0)) == 0

    def test_matches_brute_force(self):
        book = build_int_codebook(6)
        xs = rng().uniform(-1.3, 1.3, 2000)
        assert np.array_equal(lookup_indices(book, xs), brute_force_lookup(book.values, xs))

    def test_non_finite_rejected(self):
        book = build_int_codebook(4)
        with pytest.raises(InvalidValueError):
            lookup_indices(book, np.asarray(float("nan")))
        with pytest.raises(InvalidValueError):
            lookup_indices(book, np.array([0.0, np.inf]))


def two_sided_lookup(values, xs):
    """Reference lookup: bracket with searchsorted, then compare both distances."""
    j = np.clip(np.searchsorted(values, xs), 1, values.size - 1)
    return np.where((xs - values[j - 1]) <= (values[j] - xs), j - 1, j)


def builtin_codebooks():
    books = {}
    for k in range(2, 9):
        books[f"int{k}"] = build_int_codebook(k)
        books[f"uint{k}"] = build_uint_codebook(k)
        books[f"dynamic{k}"] = build_dynamic_codebook(DynamicSpec(k))
        books[f"quantile{k}"] = build_quantile_codebook(QuantileSpec(k, rng(k).standard_t(3, 5000)))
        for e in range(1, k) if k >= 3 else ():
            books[f"float{k}-e{e}"] = build_float_codebook(FloatSpec(k, e))
    return books


def ulp_neighbourhood(points):
    points = np.asarray(points, dtype=np.float64)
    return np.concatenate(
        [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)]
    )


BUILTIN_CODEBOOKS = builtin_codebooks()


class TestExactThresholds:
    """The threshold search must equal the two-sided rule at every tie."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_CODEBOOKS))
    def test_matches_two_sided_rule_at_ties(self, name):
        book = BUILTIN_CODEBOOKS[name]
        v = book.values
        probes = np.concatenate(
            [
                ulp_neighbourhood((v[:-1] + v[1:]) / 2),
                ulp_neighbourhood(v),
                ulp_neighbourhood(book.thresholds),
                [0.0, -0.0, 5.0, -5.0],
            ]
        )
        assert np.array_equal(lookup_indices(book, probes), two_sided_lookup(v, probes))
        # zero blocks normalize to 0.0 and rely on it finding the zero code
        assert np.all(lookup_indices(book, np.array([0.0, -0.0])) == book.zero_index)

    def test_thresholds_are_last_value_kept_left(self):
        book = build_float_codebook(FloatSpec(5, 2))
        t = book.thresholds
        assert t.size == len(book) - 1 and not t.flags.writeable
        assert np.array_equal(two_sided_lookup(book.values, t), np.arange(t.size))
        above = np.nextafter(t, np.inf)
        assert np.array_equal(two_sided_lookup(book.values, above), np.arange(1, t.size + 1))

    def test_thresholds_cached_per_codebook(self):
        book = build_int_codebook(5)
        assert book.thresholds is book.thresholds


def crowded_codebook():
    """A quantile-kind 8-bit book with 253 thresholds inside one of 2^16 cells."""
    values = np.concatenate([[-1.0, 0.0], 1e-9 * np.arange(1, 254), [1.0]])
    return Codebook(CodebookKind.QUANTILE, 8, values)


ORACLE_CODEBOOKS = {
    **BUILTIN_CODEBOOKS,
    "quantile8-cauchy": build_quantile_codebook(QuantileSpec(8, rng(31).standard_cauchy(5000))),
    "quantile4-skewed": build_quantile_codebook(QuantileSpec(4, rng(32).exponential(size=999))),
    "crowded": crowded_codebook(),
}


def bucket_probes(book):
    """Thresholds, cell edges and the extremes, each with its one-ulp neighbours."""
    n = book.cells[0].size - 1
    edges = -1.0 + 2.0 * np.arange(n + 1) / n
    tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308])
    extremes = np.array([0.0, 1.0, 1e300, 1.7e308])
    return np.concatenate(
        [
            ulp_neighbourhood(book.thresholds),
            ulp_neighbourhood(edges),
            ulp_neighbourhood(extremes),
            -ulp_neighbourhood(extremes),
            tiny,
            -tiny,
        ]
    )


class TestBucketLookup:
    """The bucketed lookup must equal searchsorted over the thresholds everywhere."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(ORACLE_CODEBOOKS))
    def test_matches_searchsorted(self, name):
        book = ORACLE_CODEBOOKS[name]
        xs = np.concatenate([bucket_probes(book), rng(33).uniform(-1.1, 1.1, 5000)])
        expected = np.searchsorted(book.thresholds, xs, side="left")
        assert np.array_equal(lookup_indices(book, xs), expected)
        assert lookup_indices(book, xs[:12].reshape(3, 4)).shape == (3, 4)

    def test_table_shape(self):
        for book in ORACLE_CODEBOOKS.values():
            start, padded, probes = book.cells
            n = start.size - 1
            per_cell = np.bincount(
                np.searchsorted(start, np.arange(book.thresholds.size), side="right") - 1
            )
            assert start.dtype == np.uint8 and n & (n - 1) == 0 and n <= 1 << 16
            assert per_cell.max() <= 1 or n == 1 << 16
            assert probes == int(per_cell.max()).bit_length()
            assert np.array_equal(padded[: book.thresholds.size], book.thresholds)
            assert np.all(padded[book.thresholds.size :] == np.inf)
            assert padded.size == book.thresholds.size + (1 << probes) - 1
        crowded = ORACLE_CODEBOOKS["crowded"]
        assert crowded.cells[2] == 8 and crowded.cells is crowded.cells


def reference_pack(indices, k):
    bits = np.unpackbits(np.asarray(indices, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    return np.packbits(bits[:, :k].ravel(), bitorder="little")


def reference_unpack(data, k, count):
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bits = bits[: count * k].reshape(count, k).astype(np.uint16)
    return (bits << np.arange(k, dtype=np.uint16)).sum(axis=1)


class TestWordLanes:
    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 8 * 37 + 3])
    def test_matches_bit_matrix_reference(self, k, n):
        indices = rng(50 + k * 100 + n).integers(0, 2**k, n)
        indices[0], indices[-1] = 2**k - 1, 0 if n > 1 else 2**k - 1
        packed = pack_indices(indices, k)
        assert packed.dtype == np.uint8 and np.array_equal(packed, reference_pack(indices, k))
        # stray padding bits and trailing bytes must not leak into the codes
        noisy = np.concatenate([packed, np.array([0xFF, 0xA5], np.uint8)])
        noisy[packed.size - 1] |= 0xFF << ((n * k) % 8 or 8) & 0xFF
        for data in (packed, noisy):
            out = unpack_indices(data, k, n)
            assert out.dtype == np.uint8
            assert np.array_equal(out, reference_unpack(data, k, n))
            assert np.array_equal(out, indices)


class TestPacking:
    def test_known_nibble_layout(self):
        packed = pack_indices([1, 2], 4)
        assert packed.dtype == np.uint8 and np.array_equal(packed, [0x21])

    def test_three_bit_payload_size(self):
        assert len(pack_indices(list(range(8)), 3)) == 3

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 1000])
    def test_round_trip(self, k, n):
        indices = rng(k * 1000 + n).integers(0, 2**k, n)
        packed = pack_indices(indices, k)
        assert len(packed) == -(-n * k // 8)
        assert np.array_equal(unpack_indices(packed, k, n), indices)

    def test_index_overflow_rejected(self):
        with pytest.raises(InvalidValueError):
            pack_indices([0, 16], 4)

    @pytest.mark.parametrize("codes", [np.array([1.7, 2.2, 15.9]), [1.0, 2.0], [True, False]],
                             ids=["fractions", "whole-floats", "bools"])
    def test_non_integer_codes_rejected(self, codes):
        with pytest.raises(InvalidValueError, match="indices must be integers"):
            pack_indices(codes, 4)

    def test_empty_codes_pack_to_nothing(self):
        for packed in (pack_indices([], 4), pack_indices(np.zeros(0), 4)):
            assert packed.dtype == np.uint8 and np.array_equal(packed, np.zeros(0, np.uint8))

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidValueError, match="negative count"):
            unpack_indices(b"\x21\x43", 4, -3)

    def test_unpack_truncated(self):
        with pytest.raises(LengthError):
            unpack_indices(b"\x01", 4, 3)

    def test_bad_width(self):
        with pytest.raises(PrecisionRangeError):
            pack_indices([0], 9)


class TestQuantConfig:
    def test_float_needs_three_bits(self):
        with pytest.raises(PrecisionRangeError):
            QuantConfig(kind="float", bits=2)

    def test_fraction_range(self):
        with pytest.raises(InvalidFractionError):
            QuantConfig(kind="int", bits=4, outlier_fraction=1.0)

    def test_block_size_positive(self):
        with pytest.raises(InvalidSpecError):
            QuantConfig(kind="int", bits=4, block_size=0)

    def test_exponent_bits_only_for_float(self):
        with pytest.raises(InvalidSpecError):
            QuantConfig(kind="int", bits=4, exponent_bits=2)

    def test_uint_not_quantizable(self):
        with pytest.raises(InvalidSpecError):
            QuantConfig(kind="uint", bits=4)


class TestQuantizeRoundTrip:
    def test_all_zero_tensor(self):
        config = QuantConfig(kind="int", bits=4, block_size=8)
        q = quantize_tensor(np.zeros((4, 8)), build_int_codebook(4), config)
        assert np.all(q.absmax == 0)
        assert np.all(dequantize_tensor(q) == 0.0)

    def test_codebook_members_are_fixed_points(self):
        config = QuantConfig(kind="int", bits=3)
        x = rng().choice([-1.0, 0.0, 1.0], size=200)
        x[0] = 1.0  # pin the absmax
        q = quantize_tensor(x, build_int_codebook(3), config)
        assert np.array_equal(dequantize_tensor(q), x)

    def test_blocking_confines_outliers(self):
        config_b = QuantConfig(kind="int", bits=4, block_size=64)
        config_w = QuantConfig(kind="int", bits=4)
        book = build_int_codebook(4)
        x = rng(7).standard_normal(4096)
        x[100] = 100.0  # one huge element poisons a whole-tensor constant
        mse_block = np.mean((x - dequantize_tensor(quantize_tensor(x, book, config_b))) ** 2)
        mse_whole = np.mean((x - dequantize_tensor(quantize_tensor(x, book, config_w))) ** 2)
        assert mse_block <= mse_whole

    @pytest.mark.parametrize("kind", ["int", "float", "dynamic"])
    @pytest.mark.parametrize("block", [None, 64])
    def test_requantization_is_idempotent(self, kind, block):
        # holds for codebooks reaching +-1 on both sides: the block absmax
        # element re-selects an extreme code, so constants are reproduced
        k = 4
        config = QuantConfig(kind=kind, bits=k, block_size=block)
        x = rng(hash((kind, block)) % 1000).standard_normal(515) * 3.0
        book = codebook_for(x, config)
        q1 = quantize_tensor(x, book, config)
        y = dequantize_tensor(q1, book)
        q2 = quantize_tensor(y, book, config)
        assert q1.packed_indices.dtype == q2.packed_indices.dtype == np.uint8
        assert np.array_equal(q1.packed_indices, q2.packed_indices)
        assert np.array_equal(q1.absmax, q2.absmax)

    def test_quantile_requantization_stays_bounded(self):
        # quantile codebooks reach +-1 on one side only, so a block whose
        # absmax element sits on the short side shrinks its constant on
        # re-quantization and exact index idempotence is not guaranteed;
        # the second pass still obeys the per-element bound and never
        # drifts outward
        config = QuantConfig(kind="quantile", bits=4, block_size=64)
        x = rng(41).standard_normal(515) * 3.0
        book = codebook_for(x, config)
        q1 = quantize_tensor(x, book, config)
        y1 = dequantize_tensor(q1, book)
        q2 = quantize_tensor(y1, book, config)
        y2 = dequantize_tensor(q2, book)
        starts = np.arange(0, x.size, 64)
        counts = np.diff(np.append(starts, x.size))
        c_rep = np.repeat(q2.absmax.astype(np.float64), counts)
        bound = c_rep * (book.coverage_radius + 2.0**-10) + 2.0**-24
        assert np.all(np.abs(y1 - y2) <= bound)
        assert np.max(np.abs(y2)) <= np.max(np.abs(y1)) * (1 + 2.0**-10)

    @pytest.mark.parametrize("kind", ["int", "float", "dynamic"])
    @pytest.mark.parametrize("centered", [False, True])
    def test_error_bound(self, kind, centered):
        k = 5
        config = QuantConfig(kind=kind, bits=k, block_size=32, centered=centered)
        book = codebook_for_kind(kind, k)
        x = rng(k).standard_normal(700) * 10.0
        q = quantize_tensor(x, book, config)
        y = dequantize_tensor(q, book)
        c_rep = np.repeat(q.absmax.astype(np.float64), np.diff(np.append(np.arange(0, 700, 32), 700)))
        bound = c_rep * (book.max_gap / 2 + 2.0**-10) + 2.0**-24
        assert np.all(np.abs(x - y.ravel()) <= bound)

    def test_centered_constant_block_reconstructs_exactly(self):
        # a constant representable in binary16 centers to a zero residual
        config = QuantConfig(kind="int", bits=3, block_size=16, centered=True)
        x = np.full(48, 1.5)
        q = quantize_tensor(x, build_int_codebook(3), config)
        assert np.all(q.absmax == 0)
        assert np.array_equal(dequantize_tensor(q), x)

    def test_centered_shifts_asymmetric_data(self):
        config = QuantConfig(kind="int", bits=4, block_size=64, centered=True)
        plain = QuantConfig(kind="int", bits=4, block_size=64)
        book = build_int_codebook(4)
        x = rng(9).standard_normal(4096) + 25.0  # strongly off-center
        mse_centered = np.mean((x - dequantize_tensor(quantize_tensor(x, book, config))) ** 2)
        mse_plain = np.mean((x - dequantize_tensor(quantize_tensor(x, book, plain))) ** 2)
        assert mse_centered < mse_plain

    def test_short_last_block_uses_own_absmax(self):
        config = QuantConfig(kind="int", bits=4, block_size=64)
        x = np.concatenate([rng(2).standard_normal(128), [0.001, -0.002]])
        q = quantize_tensor(x, build_int_codebook(4), config)
        assert q.n_blocks == 3
        assert q.absmax[-1] == to_float16(0.002)

    def test_shape_preserved(self):
        config = QuantConfig(kind="int", bits=4, block_size=16)
        x = rng(3).standard_normal((5, 7, 3))
        q = quantize_tensor(x, build_int_codebook(4), config)
        assert dequantize_tensor(q).shape == (5, 7, 3)

    def test_quantile_tensor_is_self_contained(self):
        config = QuantConfig(kind="quantile", bits=4, block_size=32)
        x = rng(4).standard_normal(300)
        book = codebook_for(x, config)
        q = quantize_tensor(x, book, config)
        assert q.codebook_values is not None
        # no codebook argument: reconstructed from the embedded values
        assert np.array_equal(dequantize_tensor(q), dequantize_tensor(q, book))

    def test_empty_and_non_finite_inputs(self):
        config = QuantConfig(kind="int", bits=4)
        book = build_int_codebook(4)
        with pytest.raises(EmptyInputError):
            quantize_tensor(np.array([]), book, config)
        with pytest.raises(InvalidValueError):
            quantize_tensor(np.array([1.0, np.nan]), book, config)

    def test_mismatched_codebook_rejected(self):
        config = QuantConfig(kind="int", bits=4)
        with pytest.raises(InvalidSpecError):
            quantize_tensor(np.ones(4), build_int_codebook(5), config)

    def test_other_quantile_codebook_rejected_on_decode(self):
        config = QuantConfig(kind="quantile", bits=4, block_size=32)
        x, y = rng(4).standard_normal(300), rng(5).standard_t(2, 300)
        q = quantize_tensor(x, codebook_for(x, config), config)
        with pytest.raises(InvalidSpecError):
            dequantize_tensor(q, codebook_for(y, config))

    def test_corrupt_indices_detected(self):
        config = QuantConfig(kind="int", bits=2)
        book = build_int_codebook(2)  # 3 codes, so index 3 is invalid
        q = quantize_tensor(np.array([0.5, -0.5, 1.0, 0.0]), book, config)
        bad = QuantizedTensor(
            shape=q.shape,
            config=q.config,
            packed_indices=pack_indices([3, 3, 3, 3], 2),
            n_quantized=q.n_quantized,
            absmax=q.absmax,
            means=None,
            outlier_dims=q.outlier_dims,
            outlier_rows=q.outlier_rows,
        )
        with pytest.raises(CorruptDataError):
            dequantize_tensor(bad, book)

    @pytest.mark.parametrize(
        "config, foreign",
        [
            (QuantConfig(kind="float", bits=4, block_size=64), FloatSpec(4, 1)),
            (QuantConfig(kind="dynamic", bits=4, block_size=64), DynamicSpec(4, 0.2, 0.8)),
        ],
        ids=["float4-e1", "dynamic4-0.2-0.8"],
    )
    def test_codebook_other_than_the_configs_rejected(self, config, foreign):
        build = build_float_codebook if config.kind is CodebookKind.FLOAT else build_dynamic_codebook
        x, book = rng(6).standard_normal((64, 64)), build(foreign)
        with pytest.raises(InvalidSpecError):
            quantize_tensor(x, book, config)
        q = quantize_tensor(x, codebook_for(x, config), config)
        with pytest.raises(InvalidSpecError):
            dequantize_tensor(q, book)

    @pytest.mark.parametrize("n_means", [1, 3])
    def test_wrong_means_count_detected(self, n_means):
        config = QuantConfig(kind="int", bits=4, block_size=4, centered=True)
        q = quantize_tensor(np.arange(8.0), build_int_codebook(4), config)
        q.means = np.zeros(n_means, dtype=np.float16)  # two blocks need two means
        with pytest.raises(CorruptDataError):
            dequantize_tensor(q)


class TestFloat16Storage:
    def test_round_to_nearest_even(self):
        # halfway cases resolve to the even significand
        assert to_float16(1.0 + 2.0**-11) == np.float16(1.0)
        assert to_float16(1.0 + 3 * 2.0**-11) == np.float16(1.0 + 2.0**-9)

    def test_saturates_instead_of_overflowing(self):
        assert to_float16(1e6) == np.float16(65504.0)
        assert to_float16(-1e6) == np.float16(-65504.0)

    def test_outlier_row_beyond_binary16_rejected(self):
        config = QuantConfig(kind="int", bits=4, block_size=16)
        w = rng(8).standard_normal((8, 8))
        w[3] = 1e6  # excluded from every block constant, so only its own storage overflows
        with pytest.raises(InvalidValueError):
            quantize_mixed(w, [3], build_int_codebook(4), config)

    def test_saturated_mean_is_absorbed_by_the_constant(self):
        # the mean saturates to 65504 and the constant covers the rest
        config = QuantConfig(kind="int", bits=8, block_size=4, centered=True)
        x = np.array([70000.0, 70001.0, 69990.0, 70010.0])
        q = quantize_tensor(x, build_int_codebook(8), config)
        assert q.means[0] == np.float16(65504.0)
        assert np.max(np.abs(dequantize_tensor(q) - x)) <= 17.5

    def test_normalized_overflow_clamps_to_extreme_code(self):
        # absmax can round down, pushing one normalized value past 1
        config = QuantConfig(kind="int", bits=4, block_size=4)
        x = np.array([2049.0, 1.0, -3.0, 5.0])  # 2049 rounds to 2048 in fp16
        q = quantize_tensor(x, build_int_codebook(4), config)
        assert q.indices()[0] == 14  # the +1.0 code


class TestSlabs:
    """Slab size is an internal memory bound; it must not change any output."""

    CASES = [
        ("int", 4, 64, False, None),
        ("float", 3, 100, True, None),
        ("quantile", 3, 64, True, None),
        ("dynamic", 5, 100, False, [2, 7]),
    ]

    @staticmethod
    def run(kind, bits, block, centered, dims):
        x = rng(77).standard_t(4, (23, 37)) + 0.25
        x.reshape(-1)[200:400] = 0.0  # whole zero blocks at both block sizes
        config = QuantConfig(kind=kind, bits=bits, block_size=block, centered=centered)
        book = codebook_for(x, config)
        if dims is None:
            q = quantize_tensor(x, book, config)
        else:
            q = quantize_mixed(x, dims, book, config)
        return book, q, dequantize_tensor(q)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{c[1]}-b{c[2]}")
    @pytest.mark.parametrize("blocks_per_slab", [1, 3, 2.5])
    def test_tiny_slabs_give_equal_tensor(self, monkeypatch, case, blocks_per_slab):
        book, q, decoded = self.run(*case)
        # a slab that is not a whole number of blocks rounds down to one
        monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", int(blocks_per_slab * case[2]))
        small_book, small_q, small_decoded = self.run(*case)
        assert np.array_equal(small_book.values, book.values)
        assert small_q == q
        assert np.array_equal(small_decoded, decoded)


class TestSharedNormalization:
    """The config's own codebook, with the kept rows normalized once, against codebook_for."""

    @pytest.mark.parametrize(
        "kind, bits, block, centered",
        [("int", 4, 64, False), ("float", 3, None, True), ("dynamic", 5, 7, False),
         ("quantile", 4, 32, True), ("quantile", 8, None, False)],
    )
    def test_default_codebook_equals_codebook_for(self, monkeypatch, kind, bits, block, centered):
        monkeypatch.setattr(quantizer, "_SLAB_ELEMENTS", 96)
        x = rng(78).standard_t(3, (40, 24))
        x[0, 0] = x[-1, -1] = 0.0  # the unsorted sample starts and ends at zero
        config = QuantConfig(kind=kind, bits=bits, block_size=block, centered=centered)
        expected = quantize_tensor(x, codebook_for(x, config), config)
        assert quantize_tensor(x, None, config) == expected

    def test_all_zero_tensor_has_no_quantile_book(self):
        with pytest.raises(InvalidValueError):
            quantize_tensor(np.zeros((4, 8)), None, QuantConfig(kind="quantile", bits=4))

    @pytest.mark.parametrize(
        "kind, bits, e", [("int", 4, None), ("float", 6, 2), ("dynamic", 8, None)]
    )
    def test_fixed_codebook_is_built_once_and_read_only(self, kind, bits, e):
        book = quantizer._fixed_codebook(CodebookKind(kind), bits, e)
        assert quantizer._fixed_codebook(CodebookKind(kind), bits, e) is book
        config = QuantConfig(kind=kind, bits=bits, exponent_bits=e)
        assert codebook_for(np.ones(3), config) is book
        assert not book.values.flags.writeable
        with pytest.raises(ValueError):
            book.values[0] = 0.0


class TestFloatExponentBits:
    @pytest.mark.parametrize("e", [0, -1, 5, 2.5, 2.0, "2", "uint"])
    def test_outside_one_to_bits_rejected(self, e):
        with pytest.raises(InvalidSpecError):
            QuantConfig(kind="float", bits=5, exponent_bits=e)

    @pytest.mark.parametrize("e", [1, 4, np.int64(3)])
    def test_integer_in_range_accepted(self, e):
        config = QuantConfig(kind="float", bits=5, exponent_bits=e)
        book = codebook_for(np.ones(3), config)
        assert np.array_equal(book.values, build_float_codebook(FloatSpec(5, int(e))).values)


class TestQuantizedTensorEquality:
    """Each field takes part: arrays by dtype, shape and values, the rest by ==."""

    @pytest.fixture
    def q(self):
        x = rng(91).standard_normal((12, 8))
        config = QuantConfig(kind="quantile", bits=3, block_size=16, centered=True,
                             outlier_fraction=0.2)
        return quantize_mixed(x, [2, 7], codebook_for(x, config), config)

    def test_field_by_field_copy_is_equal(self, q):
        assert dataclasses.replace(q) == q

    @pytest.mark.parametrize(
        "field, change",
        [("absmax", lambda a: a.astype(np.float32)),
         ("codebook_values", lambda a: a.astype(np.float32)),
         ("outlier_rows", lambda a: a.reshape(-1)),
         ("outlier_dims", lambda a: a.reshape(1, -1)),
         ("means", lambda a: None),
         ("packed_indices", lambda a: np.concatenate([a[:1] ^ np.uint8(1), a[1:]])),
         ("config", lambda c: dataclasses.replace(c, outlier_fraction=0.25)),
         ("shape", lambda s: (s[0] * 2, s[1] // 2))],
        ids=["absmax-dtype", "codebook-dtype", "rows-shape", "dims-shape", "means-none",
             "packed-indices", "config", "shape"],
    )
    def test_one_changed_field_is_unequal(self, q, field, change):
        other = dataclasses.replace(q, **{field: change(getattr(q, field))})
        assert other != q and q != other
        assert not other == q and not q == other

    def test_non_quantized_tensor_operand(self, q):
        assert q.__eq__(q.packed_indices) is NotImplemented
        assert np.all(q != q.packed_indices)  # numpy's reflected comparison, element by element
        assert q != q.packed_indices.tobytes() and q != None and q != vars(q)  # noqa: E711
