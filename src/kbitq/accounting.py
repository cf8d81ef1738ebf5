"""Bit-cost arithmetic, quantization-error metrics, and correlation.

Storage cost per parameter is the code width plus amortized overheads:
16-bit block constants contribute 16/B bits, per-block means another 16/B
when centering is on, and keeping a fraction p of rows at 16 bits adds
p * (16 - k). Exact whole-model totals additionally count every sidecar
byte, including the 32-bit outlier index lists that the per-parameter
headline deliberately ignores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError, UndefinedCorrelationError
from .quantizer import KBQ_SECTIONS, QuantConfig, QuantizedTensor, section_counts
from .quantizer import _checked_codes, _decode, _kept_values


@dataclass(frozen=True)
class BitsBreakdown:
    """Effective storage bits per parameter, itemized."""

    base_bits: float
    block_overhead: float
    centering_overhead: float
    outlier_overhead: float

    @property
    def total(self) -> float:
        return (self.base_bits + self.block_overhead + self.centering_overhead
                + self.outlier_overhead)

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


@dataclass(frozen=True)
class ErrorReport:
    """Element-wise reconstruction error plus codebook usage.

    snr_db is None when the reconstruction is lossless; the lossless flag
    makes that explicit instead of reporting an infinite ratio. Over zero
    elements every error field is None, and the (vacuous) lossless flag True.
    """

    mae: float | None
    mse: float | None
    max_abs_error: float | None
    snr_db: float | None
    lossless: bool
    codebook_utilization: float

    def as_dict(self) -> dict:
        return asdict(self)


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


def section_bytes(
    config: QuantConfig, n_quantized: int, n_dims: int, n_outlier_values: int, n_codes: int
) -> dict[str, int]:
    """Exact byte size of each KBQ section of a tensor with these counts (section_counts)."""
    counts = section_counts(config, n_quantized, n_dims, n_outlier_values, n_codes)
    return {name: counts[name] * np.dtype(code).itemsize for name, code in KBQ_SECTIONS.items()}


def payload_sections(q: QuantizedTensor) -> dict[str, int]:
    """Exact byte size of each serialized section of a quantized tensor."""
    n_codes = 0 if q.codebook_values is None else int(q.codebook_values.size)
    return section_bytes(
        q.config, q.n_quantized, int(q.outlier_dims.size), int(q.outlier_rows.size), n_codes
    )


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
        total_bytes += sum(section_bytes(config, count - n_out, 0, n_out, 0).values())
    return 8 * total_bytes


class ErrorSums:
    """Running error sums over one or more tensors, in the order added."""

    def __init__(self) -> None:
        self.n = 0
        self.signal = self.abs_err = self.sq_err = self.max_abs_error = 0.0
        self.code_use = None  # (codes used, codes in the book) of the last tensor ended
        self._used = None  # which codes the current tensor's slabs used so far

    def add(self, original, dequantized, codes=None) -> None:
        """Add one tensor and its reconstruction, or a slab of one decoded from codes."""
        a = np.asarray(original, dtype=np.float64)
        b = np.asarray(dequantized, dtype=np.float64)
        if a.shape != b.shape:
            raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
        # one tensor-sized temporary at a time: a^2, then |a - b| squared in place
        self.n += a.size
        self.signal += float(np.sum(a**2))
        err = a - b
        np.abs(err, out=err)
        self.abs_err += float(np.sum(err))
        self.max_abs_error = max(self.max_abs_error, float(np.max(err, initial=0.0)))
        self.sq_err += float(np.sum(np.square(err, out=err)))
        if codes is not None:
            if self._used is None:
                self._used = np.zeros(256, dtype=bool)  # codes have at most 8 bits
            self._used[codes] = True

    def end_tensor(self, outliers, rows, n_codes: int) -> tuple[int, int]:
        """Add the tensor's outlier rows after its slabs; returns and keeps its code_use."""
        self.add(np.ravel(outliers), np.ravel(rows))
        used = 0 if self._used is None else int(np.count_nonzero(self._used))
        self.code_use, self._used = (used, n_codes), None
        return self.code_use

    def add_quantized(self, original, q: QuantizedTensor) -> tuple[int, int]:
        """Add a tensor and its quantization q, decoding q slab by slab; returns code_use(q).

        Outlier rows come last, so the sums can differ from error_metrics' in the last digit.
        """
        a = np.asarray(original)
        codebook, indices = _checked_codes(q)
        if a.shape != q.shape:
            raise DimensionError(f"shape mismatch: {a.shape} vs {q.shape}")
        for lo, hi, blocks, x in _kept_values(a, q.outlier_dims, q.block_size):
            codes = indices[lo:hi]
            self.add(x, _decode(codebook, codes, q.absmax, q.means, blocks, q.block_size), codes)
        outliers = a[q.outlier_dims] if q.outlier_dims.size else ()
        return self.end_tensor(outliers, q.outlier_rows, len(codebook))

    def report(self, codebook_utilization: float) -> ErrorReport:
        """Means, maximum and SNR over every element added so far."""
        if self.n == 0:
            return ErrorReport(None, None, None, None, True, codebook_utilization)
        signal = self.signal / self.n
        err_power = self.sq_err / self.n
        lossless = err_power == 0.0
        if lossless or signal == 0.0:
            # lossless has no finite ratio; zero signal has no meaningful one
            snr = None
        else:
            snr = float(10.0 * np.log10(signal / err_power))
        return ErrorReport(
            mae=self.abs_err / self.n,
            mse=err_power,
            max_abs_error=self.max_abs_error,
            snr_db=snr,
            lossless=lossless,
            codebook_utilization=codebook_utilization,
        )


def error_metrics(original, dequantized, q: QuantizedTensor) -> ErrorReport:
    """Compare a tensor against its reconstruction."""
    sums = ErrorSums()
    sums.add(original, dequantized)
    used, n_codes = code_use(q)
    return sums.report(used / n_codes)


def code_use(q: QuantizedTensor) -> tuple[int, int]:
    """(codes used by at least one element, codes in its codebook), checked as the decoder does."""
    codebook, codes = _checked_codes(q)
    return int(np.count_nonzero(np.bincount(codes, minlength=len(codebook)))), len(codebook)


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
