"""Codebook construction tests.

Expected value sets are frozen from independent enumeration oracles
(exact rational arithmetic for the minifloat and dynamic-exponent
layouts, the analytic inverse CDF for quantile codebooks).
"""

from fractions import Fraction

import numpy as np
import pytest

from kbitq import (
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
    default_exponent_bits,
    estimate_quantiles,
    heuristic_exponent_bits,
)
from kbitq.codebooks import _sorted_quantiles
from kbitq.errors import (
    EmptyInputError,
    InvalidSpecError,
    InvalidValueError,
    OutOfRangeError,
    PrecisionRangeError,
)


def all_codebooks(sample=None):
    """One codebook per kind and bit width, for invariant sweeps."""
    books = []
    for k in range(2, 9):
        books.append(build_int_codebook(k))
        books.append(build_uint_codebook(k))
        books.append(build_dynamic_codebook(DynamicSpec(k)))
        if k >= 3:
            books.append(build_float_codebook(FloatSpec(k, default_exponent_bits(k))))
            books.append(build_float_codebook(FloatSpec(k, heuristic_exponent_bits(k))))
        if sample is not None:
            books.append(build_quantile_codebook(QuantileSpec(k, sample)))
    return books


class TestIntCodebook:
    def test_k2_smallest_symmetric(self):
        assert build_int_codebook(2).values.tolist() == [-1.0, 0.0, 1.0]

    def test_k3_enumeration(self):
        expected = [j / 3 for j in range(-3, 4)]
        assert build_int_codebook(3).values.tolist() == pytest.approx(expected, abs=0)

    def test_k8_extent(self):
        book = build_int_codebook(8)
        assert len(book) == 255
        assert book.values[0] == -1.0 and book.values[-1] == 1.0
        assert 0.0 in book.values
        assert np.allclose(np.diff(book.values), 1 / 127, atol=0)

    @pytest.mark.parametrize("k", [1, 9, 0])
    def test_out_of_range_bits(self, k):
        with pytest.raises(PrecisionRangeError):
            build_int_codebook(k)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_uniform_spacing_within_ulp(self, k):
        # each value j/m is exact to half an ulp of itself, so adjacent
        # differences agree to within one ulp of the unit endpoints
        diffs = np.diff(build_int_codebook(k).values)
        assert diffs.max() - diffs.min() <= np.spacing(1.0)


class TestUintCodebook:
    def test_unsigned_8bit_map(self):
        book = build_uint_codebook(8)
        assert len(book) == 256
        assert book.values[83] == 83 / 255
        assert book.values[0] == 0.0 and book.values[-1] == 1.0


class TestFloatCodebook:
    @staticmethod
    def enumerate_exact(total, e_bits, bias):
        """Independent oracle: exact rational enumeration of every pattern."""
        m_bits = total - 1 - e_bits
        mags = set()
        for e in range(2**e_bits):
            for m in range(2**m_bits):
                if e == 0:
                    mags.add(Fraction(m, 2**m_bits) * Fraction(2) ** (1 - bias))
                else:
                    mags.add((1 + Fraction(m, 2**m_bits)) * Fraction(2) ** (e - bias))
        peak = max(mags)
        positives = sorted(v / peak for v in mags)
        return [-v for v in reversed(positives) if v != 0] + positives

    def test_4bit_e2m1_known_values(self):
        book = build_float_codebook(FloatSpec(4, 2))
        expected = [
            Fraction(0), Fraction(1, 12), Fraction(1, 6), Fraction(1, 4),
            Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
        ]
        assert len(book) == 15
        positives = book.values[7:]
        assert positives == pytest.approx([float(f) for f in expected], rel=1e-15)
        assert np.array_equal(book.values[:8], -book.values[7:][::-1])

    def test_3bit_e1m1_seven_values(self):
        book = build_float_codebook(FloatSpec(3, 1))
        assert len(book) == 7
        assert np.array_equal(book.values, -book.values[::-1])

    @pytest.mark.parametrize("total,e_bits", [(3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 3), (8, 4)])
    def test_matches_exact_enumeration(self, total, e_bits):
        book = build_float_codebook(FloatSpec(total, e_bits))
        oracle = [float(f) for f in self.enumerate_exact(total, e_bits, 2 ** (e_bits - 1))]
        assert len(book) == 2**total - 1
        assert book.values == pytest.approx(oracle, rel=1e-15)

    @pytest.mark.parametrize("total,e_bits", [(4, 2), (6, 3), (8, 3)])
    @pytest.mark.parametrize("delta", [-2, 1, 5])
    def test_bias_cancels_under_normalization(self, total, e_bits, delta):
        base = build_float_codebook(FloatSpec(total, e_bits))
        shifted = build_float_codebook(FloatSpec(total, e_bits, bias=2 ** (e_bits - 1) + delta))
        assert np.all(np.abs(base.values - shifted.values) <= np.spacing(np.abs(base.values)))

    def test_zero_exponent_bits_rejected(self):
        with pytest.raises(InvalidSpecError):
            FloatSpec(4, 0)

    def test_exponent_bits_consuming_everything_rejected(self):
        with pytest.raises(InvalidSpecError):
            FloatSpec(4, 4)

    def test_total_bits_out_of_range(self):
        with pytest.raises(PrecisionRangeError):
            build_float_codebook(FloatSpec(9, 3))


class TestExponentBitDefaults:
    @pytest.mark.parametrize("k,expected", [(3, 2), (4, 2), (5, 2), (6, 3), (7, 3), (8, 3)])
    def test_default(self, k, expected):
        assert default_exponent_bits(k) == expected

    @pytest.mark.parametrize("k,expected", [(3, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 4)])
    def test_heuristic_half_rounded_up(self, k, expected):
        assert heuristic_exponent_bits(k) == expected

    def test_out_of_range(self):
        with pytest.raises(PrecisionRangeError):
            default_exponent_bits(2)


class TestDynamicCodebook:
    def test_k4_frozen_value_set(self):
        # Rational enumeration oracle: positive magnitudes before
        # normalization are {1/100, 9/100, 1/10, 11/30, 19/30, 9/10};
        # dividing by 9/10 freezes the set below.
        expected_pos = [
            Fraction(1, 90), Fraction(1, 10), Fraction(1, 9),
            Fraction(11, 27), Fraction(19, 27), Fraction(1),
        ]
        book = build_dynamic_codebook(DynamicSpec(4))
        assert len(book) == 13
        assert book.values[7:] == pytest.approx([float(f) for f in expected_pos], rel=1e-15)

    def test_k2_minimal(self):
        assert build_dynamic_codebook(DynamicSpec(2)).values.tolist() == [-1.0, 0.0, 1.0]

    def test_k3(self):
        book = build_dynamic_codebook(DynamicSpec(3))
        assert book.values == pytest.approx([-1, -1 / 9, 0, 1 / 9, 1], rel=1e-15)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_zero_pattern_and_sign_symmetry(self, k):
        book = build_dynamic_codebook(DynamicSpec(k))
        assert np.count_nonzero(book.values == 0.0) == 1
        assert np.array_equal(book.values, -book.values[::-1])

    @pytest.mark.parametrize("k", range(2, 9))
    def test_size_is_distinct_pattern_count(self, k):
        # sign symmetry collapses +-0; k=3 and up also merge one
        # cross-exponent collision per adjacent z (e.g. 10^-2 = 10^-1 * 0.1)
        book = build_dynamic_codebook(DynamicSpec(k))
        assert len(book) <= 2**k
        assert len(book) % 2 == 1

    def test_k1_rejected(self):
        with pytest.raises(PrecisionRangeError):
            build_dynamic_codebook(DynamicSpec(1))

    def test_bad_fraction_interval(self):
        with pytest.raises(InvalidSpecError):
            DynamicSpec(4, fraction_lo=0.9, fraction_hi=0.1)


class TestEstimateQuantiles:
    def test_median_of_odd_sample(self):
        assert estimate_quantiles([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_interpolates_between_order_statistics(self):
        assert estimate_quantiles([0, 10], 0.25) == 2.5

    def test_boundaries(self):
        data = [4.0, -1.0, 7.5, 2.0]
        assert estimate_quantiles(data, 1.0) == 7.5
        assert estimate_quantiles(data, 0.0) == -1.0

    def test_two_equal_mass_halves_at_quartiles(self):
        # the 1-bit picture: lower and upper quartile each own half the mass
        rng = np.random.Generator(np.random.Philox(key=5))
        data = rng.standard_normal(100_000)
        lo, hi = estimate_quantiles(data, 0.25), estimate_quantiles(data, 0.75)
        boundary = (lo + hi) / 2
        assert np.mean(data < boundary) == pytest.approx(0.5, abs=0.01)

    def test_empty_sample(self):
        with pytest.raises(EmptyInputError):
            estimate_quantiles([], 0.5)

    def test_probability_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            estimate_quantiles([1, 2], 1.5)


class TestSortedQuantiles:
    """The one interpolation rule of estimate_quantiles and quantile books, against np.quantile."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 4097, 1 << 20])
    @pytest.mark.parametrize("dist", ["gaussian", "t2", "integer-ties", "one-hot"])
    def test_matches_np_quantile_bit_for_bit(self, dist, n):
        gen = np.random.Generator(np.random.Philox(key=n))
        sample = {
            "gaussian": lambda: gen.standard_normal(n),
            "t2": lambda: gen.standard_t(2, n),
            "integer-ties": lambda: gen.integers(-3, 4, n).astype(np.float64),
            "one-hot": lambda: np.eye(1, n, n // 2).ravel(),
        }[dist]()
        # every codebook width's probabilities, both ends, and weights of exactly 0.5
        probs = np.concatenate([np.arange(2**k + 1) / (2**k + 1) for k in range(2, 9)]
                               + [[0, 1, 0.5, 0.25, 0.75, 1 / 6]])
        peak = np.max(np.abs(sample)) or 1.0
        got = _sorted_quantiles(np.sort(sample), probs, peak)
        assert np.array_equal(got.view(np.int64), np.quantile(sample / peak, probs).view(np.int64))
        got = estimate_quantiles(sample, probs)
        assert np.array_equal(got.view(np.int64), np.quantile(sample, probs).view(np.int64))


class TestQuantileCodebook:
    def test_uniform_analytic_case_k2(self):
        # evenly spaced sample makes the empirical inverse CDF exactly
        # Q(p) = 2p - 1, so the midpoints are {-0.8, -0.4, 0, 0.4}
        sample = np.linspace(-1.0, 1.0, 100_001)
        book = build_quantile_codebook(QuantileSpec(2, sample))
        assert len(book) == 4
        assert book.values == pytest.approx(
            [-0.8 / 0.8, -0.4 / 0.8, 0.0, 0.4 / 0.8], abs=1e-10
        )

    @pytest.mark.parametrize("k", [3, 5])
    def test_uniform_midpoints_match_analytic_oracle(self, k):
        sample = np.linspace(-1.0, 1.0, 200_001)
        n = 2**k
        # analytic oracle: Q(p) = 2p - 1 gives q_i = (2i + 1)/(n + 1) - 1
        mids = np.array([(2 * i + 1) / (n + 1) - 1 for i in range(n)])
        mids[np.argmin(np.abs(mids))] = 0.0
        expected = np.unique(mids)
        expected = expected / np.max(np.abs(expected))
        book = build_quantile_codebook(QuantileSpec(k, sample))
        assert book.values == pytest.approx(expected, abs=1e-9)

    def test_symmetric_sample_near_symmetry(self):
        # construction probabilities stop one step short of 1, so even a
        # perfectly symmetric sample gives q_i + q_rev = -2/(2^k + 1)
        k, n = 5, 2**5
        sample = np.linspace(-1.0, 1.0, 200_001)
        probs = np.arange(n + 1) / (n + 1)
        qs = np.quantile(sample / np.max(np.abs(sample)), probs)
        mids = (qs[:-1] + qs[1:]) / 2
        skew = mids + mids[::-1]
        assert np.all(np.abs(skew + 2 / (n + 1)) < 1e-9)
        assert np.all(np.abs(skew) <= 2 / (n + 1) + 1e-9)

    def test_zero_always_present_and_capacity_respected(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        sample = rng.standard_normal(50_000) + 0.7
        for k in range(2, 9):
            book = build_quantile_codebook(QuantileSpec(k, sample))
            assert np.count_nonzero(book.values == 0.0) == 1
            assert 2 <= len(book) <= 2**k

    def test_empty_sample(self):
        with pytest.raises(EmptyInputError):
            build_quantile_codebook(QuantileSpec(3, np.array([])))

    def test_all_zero_sample(self):
        with pytest.raises(InvalidValueError):
            build_quantile_codebook(QuantileSpec(3, np.zeros(10)))


class TestSharedInvariants:
    def test_sorted_range_absmax(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        for book in all_codebooks(sample=rng.standard_normal(20_000)):
            vals = book.values
            assert np.all(np.diff(vals) > 0), book
            assert vals[0] >= -1.0 and vals[-1] <= 1.0
            assert np.max(np.abs(vals)) == 1.0
            assert len(book) <= 2**book.bits

    def test_values_are_frozen(self):
        book = build_int_codebook(4)
        with pytest.raises(ValueError):
            book.values[0] = 0.5

    def test_coverage_radius_matches_half_gap_for_symmetric_kinds(self):
        symmetric = {CodebookKind.INT, CodebookKind.FLOAT, CodebookKind.DYNAMIC}
        for book in all_codebooks():
            if book.kind in symmetric:
                assert book.coverage_radius == book.max_gap / 2

    def test_codebook_validation_rejects_junk(self):
        with pytest.raises(InvalidSpecError):
            Codebook(CodebookKind.INT, 4, np.array([0.5, 0.25, 1.0]))  # not sorted
        with pytest.raises(InvalidSpecError):
            Codebook(CodebookKind.INT, 4, np.array([0.25, 0.5]))  # absmax != 1
        with pytest.raises(InvalidSpecError):
            Codebook(CodebookKind.INT, 4, np.array([-1.0, 0.5, 1.0]))  # no zero
