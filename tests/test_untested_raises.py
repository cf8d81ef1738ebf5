"""Refusals that no other test reaches: each raises its documented error in process."""

import dataclasses
import math

import numpy as np
import pytest

from kbitq import QuantConfig, quantize_tensor, quantizer, scaling, synth
from kbitq.accounting import pearson_correlation
from kbitq.codebooks import (
    Codebook,
    CodebookKind,
    QuantileSpec,
    build_quantile_codebook,
    estimate_quantiles,
)
from kbitq.errors import (
    CorruptDataError,
    EmptyInputError,
    InvalidSpecError,
    InvalidValueError,
    OutOfRangeError,
)
from kbitq.scaling import MetricKind, ScalingRecord
from test_cli import run_cli


@pytest.mark.parametrize("centered", [True, False])
def test_means_must_be_present_iff_centered(centered):
    x = np.random.default_rng(1).standard_normal(256)
    q = quantize_tensor(x, None, QuantConfig("int", 4, 64, centered))
    means = None if centered else np.zeros(q.absmax.size, np.float16)
    bad = dataclasses.replace(q, means=means)
    with pytest.raises(CorruptDataError,
                       match=f"^means must be present iff centered, which is {centered}$"):
        bad.validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_quantile_estimates_refuse_a_non_finite_sample(value):
    sample = np.array([0.5, -1.0, value, 2.0])
    with pytest.raises(InvalidValueError, match="^quantile sample contains non-finite values$"):
        build_quantile_codebook(QuantileSpec(3, sample))
    with pytest.raises(InvalidValueError, match="^sample contains non-finite values$"):
        estimate_quantiles(sample, 0.5)


@pytest.mark.parametrize("values", [[1.0], [-1.0, -0.5, 0.0, 0.5, 1.0], [[-1.0, 0.0, 1.0]]],
                         ids=["one", "five", "2-D"])
def test_codebook_refuses_a_value_count_outside_2_to_2k(values):
    with pytest.raises(InvalidSpecError, match=r"^codebook needs 2\.\.4 values"):
        Codebook(CodebookKind.INT, 2, np.array(values))


def test_no_fixed_codebook_for_the_quantile_kind():
    with pytest.raises(InvalidSpecError, match="^no fixed codebook for kind 'quantile'$"):
        quantizer._fixed_codebook(CodebookKind.QUANTILE, 4, None)


def test_sweep_refuses_a_zero_block_size_in_its_list(capsys):
    assert run_cli(capsys, "sweep", "--synthetic", "gaussian", "--shape", "64",
                   "--block-size", "64,0") == (2, "", "kbitq sweep: block size must be >= 1\n")


def test_correlation_of_one_point():
    with pytest.raises(EmptyInputError, match="^correlation needs at least two points$"):
        pearson_correlation([1.0], [2.0])


def test_make_tensor_refuses_an_unknown_kind():
    with pytest.raises(InvalidSpecError, match="^unknown synthetic kind 'cauchy'"):
        synth.make_tensor("cauchy", (4,), 0)


def curves():
    records = [ScalingRecord("f", 2**x, p, 2.0**x, MetricKind.PERPLEXITY, 20.0 - x + p)
               for p in (4.0, 8.0) for x in (10, 12)]
    return scaling.fit_curves(records)


def test_scaling_refuses_empty_input():
    with pytest.raises(EmptyInputError, match="^no records to fit$"):
        scaling.fit_curves([])
    for call in (lambda: scaling.pareto_optimal_precision({}, [1024.0]),
                 lambda: scaling.parallelism_offsets({})):
        with pytest.raises(EmptyInputError, match="^no curves given$"):
            call()


def test_scaling_refuses_out_of_range_queries():
    fitted = curves()
    curve = fitted[4.0]
    for query in (lambda: curve.evaluate_log2(math.nan), lambda: curve.evaluate_log2(9.0),
                  lambda: curve.evaluate(0.0), lambda: curve.evaluate(2.0**13)):
        with pytest.raises(OutOfRangeError):
            query()
    for budget in (0.0, -5.0, 2.0**9):
        with pytest.raises(OutOfRangeError):
            scaling.pareto_optimal_precision(fitted, [budget])
    assert curve.evaluate(2.0**11) == pytest.approx(20.0 - 11 + 4.0)
