"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with `pytest -s` to see them
on a passing run). Expected values are frozen from independent oracles:
exhaustive argmin scans, analytic inverse CDFs, hand bit-layouts, and
closed-form intersections. Directional claims run on seeded synthetic
tensors of 2^20 elements and must hold for at least 9 of 10 seeds.
"""

import json
import struct
from contextlib import contextmanager

import numpy as np
import pytest

from kbitq import (
    QuantConfig,
    bits_per_param,
    build_dynamic_codebook,
    build_float_codebook,
    build_int_codebook,
    build_quantile_codebook,
    build_uint_codebook,
    codebook_for,
    default_exponent_bits,
    dequantize_tensor,
    detect_outlier_dims,
    estimate_quantiles,
    fit_curves,
    heuristic_exponent_bits,
    lookup_indices,
    make_tensor,
    pareto_optimal_precision,
    payload_sections,
    pearson_correlation,
    quantize_mixed,
    quantize_tensor,
    read_kbq,
    total_model_bits,
    write_kbq,
)
from kbitq.codebooks import DynamicSpec, FloatSpec, QuantileSpec

N_BIG = 1 << 20
SEEDS = range(10)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {title}")
        raise
    print(f"criterion {number:2d}: PASS  {title}")


def rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def fixed_codebooks():
    """(kind, k, codebook) for every fixed data type and width."""
    out = []
    for k in range(2, 9):
        out.append(("int", k, build_int_codebook(k)))
        out.append(("dynamic", k, build_dynamic_codebook(DynamicSpec(k))))
        if k >= 3:
            out.append(("float", k, build_float_codebook(FloatSpec(k, default_exponent_bits(k)))))
    return out


def test_criterion_1_bit_cost_arithmetic():
    with criterion(1, "bit-cost arithmetic is exact"):
        blocked = bits_per_param(QuantConfig(kind="int", bits=4, block_size=64))
        assert blocked.block_overhead == 0.25
        assert blocked.total == 4.25
        outliers = bits_per_param(QuantConfig(kind="int", bits=4, outlier_fraction=0.02))
        assert outliers.outlier_overhead == 0.24
        assert outliers.total == 4.0 + 0.24


def test_criterion_2_unsigned_int_mapping():
    with criterion(2, "8-bit unsigned map sends 83 to 0.3255"):
        book = build_uint_codebook(8)
        assert book.values[83] == 83 / 255
        assert abs(book.values[83] - 0.3255) <= 1e-4


def test_criterion_3_codebook_suites():
    with criterion(3, "codebook construction invariants"):
        sample = rng(300).standard_normal(100_000)
        books = [cb for _, _, cb in fixed_codebooks()]
        books += [build_uint_codebook(k) for k in range(2, 9)]
        books += [build_quantile_codebook(QuantileSpec(k, sample)) for k in range(2, 9)]

        # sortedness, range, exact absmax normalization
        for book in books:
            assert np.all(np.diff(book.values) > 0)
            assert book.values[0] >= -1.0 and book.values[-1] <= 1.0
            assert np.max(np.abs(book.values)) == 1.0

        # bias invariance of float codebooks, elementwise within 1 ulp
        for k in range(3, 9):
            for e_bits in {default_exponent_bits(k), heuristic_exponent_bits(k)}:
                base = build_float_codebook(FloatSpec(k, e_bits)).values
                for delta in (-2, 1, 7):
                    other = build_float_codebook(
                        FloatSpec(k, e_bits, bias=2 ** (e_bits - 1) + delta)
                    ).values
                    assert np.all(np.abs(base - other) <= np.spacing(np.abs(base)))

        # int spacing uniform within 1 ulp of the unit endpoints
        for k in range(2, 9):
            diffs = np.diff(build_int_codebook(k).values)
            assert diffs.max() - diffs.min() <= np.spacing(1.0)

        # quantile bins underlying the codebook hold equal mass: each of
        # the 2^k bins carries 1/(2^k + 1) of the sample, within 20% of
        # the 2^-k target (exactly -20% at k=2) plus integer-count slack
        n = sample.size
        normalized = np.sort(sample / np.max(np.abs(sample)))
        for k in range(2, 9):
            n_codes = 2**k
            probs = np.arange(n_codes + 1) / (n_codes + 1)
            edges = estimate_quantiles(normalized, probs)
            positions = np.searchsorted(normalized, edges, side="left")
            masses = np.diff(positions) / n
            rel = masses / 2.0**-k - 1.0
            assert np.all(np.abs(rel) <= 0.20 + 4.0 * 2**k / n)


def test_criterion_4_lookup_matches_exhaustive_argmin():
    with criterion(4, "binary-search lookup equals exhaustive argmin"):
        combos = fixed_codebooks()
        combos += [("uint", k, build_uint_codebook(k)) for k in range(2, 9)]
        sample = rng(400).standard_normal(50_000)
        combos += [
            ("quantile", k, build_quantile_codebook(QuantileSpec(k, sample)))
            for k in range(2, 9)
        ]
        for kind, k, book in combos:
            r = rng(41_000 + 31 * k + len(kind))
            values = book.values
            mids = (values[:-1] + values[1:]) / 2
            xs = np.concatenate([r.uniform(-1.5, 1.5, 10_000), values, mids])
            got = lookup_indices(book, xs)
            brute = np.argmin(np.abs(xs[:, None] - values[None, :]), axis=1)
            assert np.array_equal(got, brute), (kind, k)


def test_criterion_5_round_trip_properties():
    with criterion(5, "idempotent re-quantization and per-element error bound"):
        n_tensors = 100
        for kind, k, book in fixed_codebooks() + [("quantile", 4, None), ("quantile", 8, None)]:
            for block in (None, 64):
                config = QuantConfig(kind=kind, bits=k, block_size=block)
                r = rng(50_000 + 97 * k + 7 * (block or 0) + len(kind))
                for _ in range(n_tensors):
                    size = int(r.integers(1, 320))
                    x = r.standard_normal(size) * 10.0 ** r.integers(-3, 4)
                    cb = book if book is not None else codebook_for(x, config)
                    q = quantize_tensor(x, cb, config)
                    y = dequantize_tensor(q, cb)

                    counts = np.diff(np.append(np.arange(0, size, block or size), size))
                    c_rep = np.repeat(q.absmax.astype(np.float64), counts)
                    bound = c_rep * (cb.coverage_radius + 2.0**-10) + 2.0**-24
                    assert np.all(np.abs(x - y) <= bound), (kind, k, block)

                    if kind != "quantile":
                        # codebooks reaching +-1 on both sides re-quantize
                        # to identical indices and constants
                        q2 = quantize_tensor(y, cb, config)
                        assert q2.packed_indices.dtype == q.packed_indices.dtype == np.uint8
                        assert np.array_equal(q2.packed_indices, q.packed_indices), (kind, k, block)
                        assert np.array_equal(q2.absmax, q.absmax)


def _mse(x, book, config):
    q = quantize_tensor(x, book, config)
    return float(np.mean((x - dequantize_tensor(q, book)) ** 2))


def test_criterion_6_directional_method_claims():
    with criterion(6, "data type, block size, and mixed precision claims (9/10 seeds)"):
        wins_dtype, wins_block, wins_mixed = 0, 0, 0
        int4 = build_int_codebook(4)
        int3 = build_int_codebook(3)
        for seed in SEEDS:
            # (a) quantile beats int at k=4 on standard-normal data under
            # whole-tensor normalization, where the data type choice is
            # isolated from block loading effects
            g = make_tensor("gaussian", N_BIG, seed)
            config_w = QuantConfig(kind="int", bits=4)
            config_q = QuantConfig(kind="quantile", bits=4)
            quantile_book = codebook_for(g, config_q)
            if _mse(g, quantile_book, config_q) < _mse(g, int4, config_w):
                wins_dtype += 1

            # (b) on heavy-tailed data, shrinking the block size never
            # hurts: outliers are confined to fewer blocks
            t = make_tensor("student-t", N_BIG, 1000 + seed)
            mses = [
                _mse(t, int4, QuantConfig(kind="int", bits=4, block_size=b))
                for b in (None, 1024, 256, 64)
            ]
            if all(a >= b for a, b in zip(mses, mses[1:])):
                wins_block += 1

            # (c) keeping planted 20x-std rows at 16 bits beats plain 3-bit
            r = rng(2000 + seed)
            w = r.standard_normal((1024, 1024))
            planted = np.sort(r.choice(1024, size=20, replace=False))
            w[planted] *= 20.0
            p = planted.size / 1024
            config3 = QuantConfig(kind="int", bits=3, block_size=64, outlier_fraction=p)
            q_mixed = quantize_mixed(w, planted, int3, config3)
            mse_mixed = float(np.mean((w - dequantize_tensor(q_mixed, int3)) ** 2))
            mse_plain = _mse(w.ravel(), int3, QuantConfig(kind="int", bits=3, block_size=64))
            if mse_mixed < mse_plain:
                wins_mixed += 1

        assert wins_dtype >= 9, f"quantile < int held for {wins_dtype}/10 seeds"
        assert wins_block >= 9, f"block monotonicity held for {wins_block}/10 seeds"
        assert wins_mixed >= 9, f"mixed < plain held for {wins_mixed}/10 seeds"


def test_criterion_7_outlier_detection_recovers_planted_columns():
    with criterion(7, "planted 20x-std columns recovered exactly (10/10 seeds)"):
        for seed in SEEDS:
            r = rng(7000 + seed)
            w0 = r.standard_normal((256, 512))
            planted = np.sort(r.choice(512, size=10, replace=False))
            w0[:, planted] *= 20.0
            w1 = r.standard_normal((512, 256))
            detected = detect_outlier_dims([w0, w1], 10 / 512)
            assert np.array_equal(detected[1], planted), f"seed {seed}"


def test_criterion_8_serialization_identity_and_accounting(tmp_path):
    with criterion(8, "KBQ write/read identity and accounting consistency"):
        tensors = {}
        salt = 0
        for kind, k, _ in fixed_codebooks() + [("quantile", k, None) for k in range(2, 9)]:
            for block in (None, 64):
                for centered in (False, True):
                    for n_out in (0, 2):
                        salt += 1
                        r = rng(80_000 + salt)
                        w = r.standard_normal((24, 16))
                        config = QuantConfig(
                            kind=kind,
                            bits=k,
                            block_size=block,
                            centered=centered,
                            outlier_fraction=n_out / 24,
                        )
                        book = codebook_for(w, config)
                        if n_out:
                            dims = np.sort(r.choice(24, size=n_out, replace=False))
                            q = quantize_mixed(w, dims, book, config)
                        else:
                            q = quantize_tensor(w, book, config)
                        tensors[f"t{salt}_{kind}{k}"] = q

        path = tmp_path / "grid.kbq"
        write_kbq(tensors, path)
        back = read_kbq(path)
        assert list(back) == list(tensors)
        for name in tensors:
            assert back[name] == tensors[name], name

        # payload bits in the file equal the accounting total; section
        # starts are 8-byte aligned so only inter-section padding differs
        blob = path.read_bytes()
        (mlen,) = struct.unpack("<I", blob[4:8])
        manifest = json.loads(blob[8 : 8 + mlen])
        file_bits = 0
        for entry in manifest["tensors"].values():
            for offset, length in entry["sections"].values():
                assert offset % 8 == 0
                file_bits += 8 * length
        assert file_bits == total_model_bits(tensors.values())
        assert file_bits == 8 * sum(
            sum(payload_sections(q).values()) for q in tensors.values()
        )


def _line_records(precision, slope, offset, xs):
    from kbitq import ScalingRecord

    return [
        ScalingRecord(
            family="synth",
            n_params=max(int(2.0**x / precision), 1),
            precision_bits=precision,
            total_bits=2.0**x,
            metric_kind="accuracy",
            value=slope * x + offset,
        )
        for x in xs
    ]


def test_criterion_9_scaling_analysis():
    with criterion(9, "planted 4-bit optimum and analytic crossing point"):
        # parallel curves with the 4-bit group planted on top
        records = []
        for precision, offset in ((3.0, -0.02), (4.0, 0.08), (5.0, 0.03), (16.0, 0.0)):
            records += _line_records(precision, 0.01, offset, [20, 22, 24, 26])
        curves = fit_curves(records)
        budgets = [2.0**x for x in np.linspace(20.0, 26.0, 25)]
        assert pareto_optimal_precision(curves, budgets) == [4.0] * len(budgets)

        # two crossing lines: 0.02x and 0.05x - 0.66 intersect at x* = 22;
        # the winner must switch exactly there, found by bisection
        crossing = fit_curves(
            _line_records(4.0, 0.02, 0.0, [20, 26]) + _line_records(8.0, 0.05, -0.66, [20, 26])
        )
        analytic = 0.66 / 0.03
        lo, hi = 20.0, 26.0
        assert pareto_optimal_precision(crossing, [2.0**lo]) == [4.0]
        assert pareto_optimal_precision(crossing, [2.0**hi]) == [8.0]
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            if pareto_optimal_precision(crossing, [2.0**mid]) == [4.0]:
                lo = mid
            else:
                hi = mid
        assert abs((lo + hi) / 2 - analytic) <= 1e-9


def test_criterion_10_pearson_correlation():
    with criterion(10, "correlation identities and affine invariance"):
        x = np.array([0.5, 1.25, 3.0, 4.5, 9.0])
        assert pearson_correlation(x, 2 * x + 1) == 1.0
        assert pearson_correlation(x, -x) == -1.0
        assert pearson_correlation([1, 2, 3], [1, 3, 2]) == 0.5
        r = rng(100)
        a, b = r.standard_normal(1000), r.standard_normal(1000)
        base = pearson_correlation(a, b)
        for scale, shift in ((3.7, 11.0), (0.004, -2.0)):
            assert pearson_correlation(scale * a + shift, b) == pytest.approx(base, abs=1e-12)
            assert pearson_correlation(a, scale * b + shift) == pytest.approx(base, abs=1e-12)
