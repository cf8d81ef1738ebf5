"""Bit-cost arithmetic, quantization-error metrics, and correlation.

Storage cost per parameter is the code width plus amortized overheads:
16-bit block constants contribute 16/B bits, per-block means another 16/B
when centering is on, and keeping a fraction p of rows at 16 bits adds
p * (16 - k). Exact whole-model totals additionally count every sidecar
byte, including the 32-bit outlier index lists that the per-parameter
headline deliberately ignores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError, UndefinedCorrelationError
from .quantizer import QuantConfig, QuantizedTensor, reconstruct_codebook


@dataclass(frozen=True)
class BitsBreakdown:
    """Effective storage bits per parameter, itemized."""

    base_bits: float
    block_overhead: float
    centering_overhead: float
    outlier_overhead: float

    @property
    def total(self) -> float:
        return self.base_bits + self.block_overhead + self.centering_overhead + self.outlier_overhead

    def as_dict(self) -> dict:
        return {
            "base_bits": self.base_bits,
            "block_overhead": self.block_overhead,
            "centering_overhead": self.centering_overhead,
            "outlier_overhead": self.outlier_overhead,
            "total": self.total,
        }


@dataclass(frozen=True)
class ErrorReport:
    """Element-wise reconstruction error plus codebook usage.

    snr_db is None when the reconstruction is lossless; the lossless flag
    makes that explicit instead of reporting an infinite ratio.
    """

    mae: float
    mse: float
    max_abs_error: float
    snr_db: float | None
    lossless: bool
    codebook_utilization: float

    def as_dict(self) -> dict:
        return {
            "mae": self.mae,
            "mse": self.mse,
            "max_abs_error": self.max_abs_error,
            "snr_db": self.snr_db,
            "lossless": self.lossless,
            "codebook_utilization": self.codebook_utilization,
        }


def bits_per_param(config: QuantConfig, element_count: int | None = None) -> BitsBreakdown:
    """Amortized storage cost of a quantization method.

    Whole-tensor configs charge the single constant against element_count
    when one is supplied and nothing otherwise.
    """
    if config.block_size is not None:
        per_block = 16.0 / config.block_size
    elif element_count:
        per_block = 16.0 / element_count
    else:
        per_block = 0.0
    return BitsBreakdown(
        base_bits=float(config.bits),
        block_overhead=per_block,
        centering_overhead=per_block if config.centered else 0.0,
        outlier_overhead=config.outlier_fraction * (16 - config.bits),
    )


def payload_sections(q: QuantizedTensor) -> dict[str, int]:
    """Exact byte size of each serialized section of a quantized tensor."""
    cfg = q.config
    return {
        "indices": -(-q.n_quantized * cfg.bits // 8),
        "absmax": 2 * q.n_blocks,
        "means": 2 * q.n_blocks if cfg.centered else 0,
        "outlier_dims": 4 * int(q.outlier_dims.size),
        "outlier_rows": 2 * int(q.outlier_rows.size),
        "codebook": 8 * int(q.codebook_values.size) if q.codebook_values is not None else 0,
    }


def total_model_bits(tensors) -> int:
    """Exact payload bits for a collection of quantized tensors.

    Accepts QuantizedTensor objects (exact, including outlier sidecars and
    embedded codebooks) or (element_count, QuantConfig) pairs for planning;
    the pair form approximates outliers as a fraction of elements and
    carries no index-list or codebook cost. Every section is rounded up to
    whole bytes.
    """
    total_bytes = 0
    for item in tensors:
        if isinstance(item, QuantizedTensor):
            total_bytes += sum(payload_sections(item).values())
            continue
        count, config = item
        count = int(count)
        if count <= 0:
            raise EmptyInputError("element counts must be positive")
        n_out = int(np.floor(config.outlier_fraction * count + 0.5))
        n_coded = count - n_out
        block = config.block_size or max(n_coded, 1)
        n_blocks = -(-n_coded // block) if n_coded else 0
        total_bytes += -(-n_coded * config.bits // 8)
        total_bytes += 2 * n_blocks * (2 if config.centered else 1)
        total_bytes += 2 * n_out
    return 8 * total_bytes


def error_metrics(original, dequantized, q: QuantizedTensor) -> ErrorReport:
    """Compare a tensor against its reconstruction."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(dequantized, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    # one tensor-sized temporary at a time: a^2, then |a - b| squared in place
    signal = float(np.mean(a**2))
    err = a - b
    np.abs(err, out=err)
    mae = float(np.mean(err))
    max_abs_error = float(np.max(err))
    err_power = float(np.mean(np.square(err, out=err)))
    del err
    lossless = err_power == 0.0
    if lossless or signal == 0.0:
        # lossless has no finite ratio; zero signal has no meaningful one
        snr = None
    else:
        snr = 10.0 * np.log10(signal / err_power)

    used, n_codes = code_use(q)
    return ErrorReport(
        mae=mae,
        mse=err_power,
        max_abs_error=max_abs_error,
        snr_db=None if snr is None else float(snr),
        lossless=lossless,
        codebook_utilization=used / n_codes,
    )


def code_use(q: QuantizedTensor) -> tuple[int, int]:
    """(codes used by at least one element, codes in the tensor's codebook)."""
    n_codes = len(reconstruct_codebook(q))
    return int(np.count_nonzero(np.bincount(q.indices(), minlength=n_codes))), n_codes


def pearson_correlation(x, y) -> float:
    """Product-moment correlation of two equal-length sequences."""
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    if a.size != b.size:
        raise DimensionError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise EmptyInputError("correlation needs at least two points")
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt((ac**2).sum() * (bc**2).sum())
    if denom == 0.0:
        raise UndefinedCorrelationError("correlation is undefined for a constant sequence")
    return float(np.clip((ac * bc).sum() / denom, -1.0, 1.0))
