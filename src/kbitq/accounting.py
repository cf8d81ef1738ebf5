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
from .quantizer import _check_finite, _checked_codes, _decode, _float64, _kept_leaves, _merged
from .quantizer import _pooled, _widened


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
    """Running error sums over one or more tensors, in the order added.

    The running sums are one partial. A slab's partial is taken apart from them and merged
    into them in slab order (fold), so slabs scored on several threads sum as one thread
    would. The leaves of a block longer than a slab are merged first, along numpy's
    pairwise-sum tree, so the block sums as np.sum sums it.
    """

    def __init__(self) -> None:
        self.sums = (0, 0.0, 0.0, 0.0, 0.0, None)  # mask None: none marked, count_nonzero 0
        self.code_use = None  # (codes used, codes in the book) of the last tensor ended

    @staticmethod
    def partial(original, dequantized, codes=None, spend=False, signal=None,
                n_codes: int = 256) -> tuple:
        """(n, signal, abs, max and squared error, codes used or None) of one tensor or slab.

        spend=True lets the sums overwrite dequantized (float64); a signal given is not summed.
        codes index a book of n_codes (see _marked).
        """
        a = np.asarray(original, dtype=np.float64)
        b = np.asarray(dequantized, dtype=np.float64)
        if a.shape != b.shape:
            raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
        a, b = np.atleast_1d(a, b)  # a 0-d difference would be a scalar, not a buffer
        # one slab-sized buffer: |a - b|, squared in place, then a^2
        err = np.subtract(a, b, out=b if spend else None)
        np.abs(err, out=err)
        abs_err, max_err = float(np.sum(err)), float(np.max(err, initial=0.0))
        sq_err = float(np.sum(np.square(err, out=err)))
        signal = float(np.sum(np.square(a, out=err))) if signal is None else signal
        used = None if codes is None else _marked(codes, n_codes)
        return a.size, signal, abs_err, max_err, sq_err, used

    @staticmethod
    def merge(left: tuple, right: tuple) -> tuple:
        """The partial of two adjacent ones: sums added, as a pairwise sum adds its halves."""
        (n, signal, abs_err, max_err, sq_err, used), (n2, signal2, abs2, max2, sq2, used2) = (
            left, right)
        return (n + n2, signal + signal2, abs_err + abs2, max(max_err, max2), sq_err + sq2,
                used2 if used is None else used if used2 is None else used | used2)

    def fold(self, partials, n: int, block_size: int) -> None:
        """Merge the partials of the leaves of n kept elements (see quantizer._kept_leaves),
        given in leaf order, into the running sums: each slab's along its tree, then in order."""
        for partial in _merged(partials, n, block_size, self.merge):
            self.sums = self.merge(self.sums, partial)

    def end_tensor(self, outliers, rows, n_codes: int) -> tuple[int, int]:
        """Add the tensor's outlier rows after its slabs; returns and keeps its code_use."""
        *sums, used = self.merge(self.sums, self.partial(np.ravel(outliers), np.ravel(rows)))
        self.sums, self.code_use = (*sums, None), (int(np.count_nonzero(used)), n_codes)
        return self.code_use

    def add_quantized(self, original, q: QuantizedTensor) -> tuple[int, int]:
        """Add a tensor and its quantization q, decoding q slab by slab; returns code_use(q).

        Outlier rows come last, so the sums can differ from error_metrics' in the last digit.
        A NaN or infinity in the original raises InvalidValueError and leaves the sums as
        they were: every partial is taken, and the outlier rows tested, before any is added.
        """
        a = np.asarray(original)
        codebook, indices = _checked_codes(q)
        if a.shape != q.shape:
            raise DimensionError(f"shape mismatch: {a.shape} vs {q.shape}")

        def score(lo: int, hi: int, blocks: slice, pieces) -> tuple:
            x, codes = _float64(pieces), indices[lo:hi]
            _check_finite(x)
            values = _decode(codebook, codes, q.absmax, q.means, blocks, q.block_size)
            return self.partial(x, values, codes, spend=True, n_codes=len(codebook))

        partials = list(_pooled(score, _kept_leaves(a, q.outlier_dims, q.block_size)))
        outliers = a[q.outlier_dims] if q.outlier_dims.size else ()
        _check_finite(outliers)
        self.fold(partials, q.n_quantized, q.block_size)
        return self.end_tensor(outliers, q.outlier_rows, len(codebook))

    def report(self, codebook_utilization: float) -> ErrorReport:
        """Means, maximum and SNR over every element added so far."""
        n, signal, abs_err, max_err, sq_err, _ = self.sums
        if n == 0:
            return ErrorReport(None, None, None, None, True, codebook_utilization)
        signal /= n
        err_power = sq_err / n
        lossless = err_power == 0.0
        if lossless or signal == 0.0:
            # lossless has no finite ratio; zero signal has no meaningful one
            snr = None
        else:
            snr = float(10.0 * np.log10(signal / err_power))
        return ErrorReport(
            mae=abs_err / n,
            mse=err_power,
            max_abs_error=max_err,
            snr_db=snr,
            lossless=lossless,
            codebook_utilization=codebook_utilization,
        )


def error_metrics(original, dequantized, q: QuantizedTensor) -> ErrorReport:
    """Compare a tensor against its reconstruction."""
    sums = ErrorSums()
    sums.sums = sums.merge(sums.sums, sums.partial(original, dequantized))
    used, n_codes = code_use(q)
    return sums.report(used / n_codes)


def code_use(q: QuantizedTensor) -> tuple[int, int]:
    """(codes used by at least one element, codes in its codebook), checked as the decoder does."""
    codebook, codes = _checked_codes(q)
    return int(np.count_nonzero(_marked(codes, len(codebook)))), len(codebook)


def _marked(codes, n_codes: int = 256) -> np.ndarray:
    """Which of the 256 codes of at most 8 bits occur in codes: a mask, marked chunk by chunk.

    codes are below n_codes, the size of their book, so once all n_codes are marked the mask is
    final and the chunks left are not read.
    """
    used = np.zeros(256, dtype=bool)
    for _, positions in _widened(np.ravel(codes)):
        used[positions] = True
        if used[:n_codes].all():
            break
    return used


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
