"""Blockwise quantization and dequantization against a codebook.

The input tensor is flattened row-major and split into blocks. Each block
is optionally centered on its mean, divided by its absolute maximum, and
every element is mapped to the nearest code. Normalization constants and
means are stored as IEEE binary16, so a normalized value can land slightly
outside [-1, 1]; nearest-code lookup clamps it to an extreme code. Blocks
whose absolute maximum rounds to zero store the zero code everywhere,
which reconstructs them exactly.

All operations are pure and block-independent: encoding and decoding walk
slabs of whole blocks, and no output depends on the slab size. Lookup counts
exact decision thresholds through a bucket table cached per codebook, and
codes are packed eight to a uint64 word lane (see pack_indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebooks import (
    Codebook,
    CodebookKind,
    DynamicSpec,
    FloatSpec,
    QuantileSpec,
    build_dynamic_codebook,
    build_float_codebook,
    build_int_codebook,
    build_quantile_codebook,
    cell_index,
    default_exponent_bits,
    _check_bits,
)
from .errors import (
    CorruptDataError,
    EmptyInputError,
    InvalidFractionError,
    InvalidSpecError,
    InvalidValueError,
    LengthError,
)

FLOAT16_MAX = 65504.0

_QUANTIZABLE_KINDS = (
    CodebookKind.INT,
    CodebookKind.FLOAT,
    CodebookKind.DYNAMIC,
    CodebookKind.QUANTILE,
)


@dataclass(frozen=True)
class QuantConfig:
    """Full description of a quantization method.

    block_size None means one block spanning the whole tensor. The outlier
    fraction is the share of input dimensions kept at 16 bits; it only
    takes effect through an explicit index set (see the outliers module)
    but always participates in bit accounting.
    """

    kind: CodebookKind
    bits: int
    block_size: int | None = None
    centered: bool = False
    outlier_fraction: float = 0.0
    exponent_bits: int | None = None

    def __post_init__(self) -> None:
        kind = CodebookKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in _QUANTIZABLE_KINDS:
            raise InvalidSpecError(f"cannot quantize with codebook kind {kind.value!r}")
        _check_bits(self.bits, low=3 if kind is CodebookKind.FLOAT else 2)
        if self.block_size is not None and self.block_size < 1:
            raise InvalidSpecError(f"block size must be >= 1, got {self.block_size}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise InvalidFractionError(
                f"outlier fraction must be in [0, 1), got {self.outlier_fraction}"
            )
        if self.exponent_bits is not None and kind is not CodebookKind.FLOAT:
            raise InvalidSpecError("exponent_bits only applies to the float kind")


@dataclass(eq=False)
class QuantizedTensor:
    """Packed codes plus the per-block constants needed to decode them.

    indices cover the quantized (non-outlier) elements in row-major order;
    rows listed in outlier_dims are stored verbatim at 16-bit in
    outlier_rows. Quantile codebooks are data-dependent, so their values
    travel with the tensor.
    """

    shape: tuple[int, ...]
    config: QuantConfig
    packed_indices: bytes
    n_quantized: int
    absmax: np.ndarray
    means: np.ndarray | None
    outlier_dims: np.ndarray
    outlier_rows: np.ndarray
    codebook_values: np.ndarray | None = None

    @property
    def element_count(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def block_size(self) -> int:
        return self.config.block_size or max(self.n_quantized, 1)

    @property
    def n_blocks(self) -> int:
        return block_count(self.n_quantized, self.config.block_size)

    def validate(self) -> None:
        """Raise CorruptDataError unless the decoder can honour this tensor.

        Shape sizes are >= 0; outlier dims ascend strictly within
        [0, shape[0]); quantized elements and outlier rows of width
        prod(shape[1:]) split the shape; index bytes, block constants and
        means fit those counts; only a quantile tensor embeds a codebook.
        """
        shape, dims, cfg = self.shape, self.outlier_dims, self.config
        n_rows = shape[0] if shape else 0
        if any(s < 0 for s in shape):
            raise CorruptDataError(f"negative size in shape {list(shape)}")
        if dims.size and (dims[0] < 0 or dims[-1] >= n_rows or np.any(np.diff(dims) <= 0)):
            raise CorruptDataError(f"outlier dims must ascend strictly within [0, {n_rows})")
        n_out = dims.size * math.prod(shape[1:])
        n_means = None if self.means is None else self.means.size
        found = (self.n_quantized, self.outlier_rows.size, len(self.packed_indices),
                 self.absmax.size, n_means)
        needed = (math.prod(shape) - n_out, n_out, -(-self.n_quantized * cfg.bits // 8),
                  self.n_blocks, self.n_blocks if cfg.centered else None)
        if found != needed:
            raise CorruptDataError(
                f"(quantized elements, outlier values, index bytes, block constants, means) "
                f"are {found}; shape {list(shape)} with {dims.size} outlier rows needs {needed}"
            )
        if cfg.kind is CodebookKind.QUANTILE:
            reconstruct_codebook(self)
        elif self.codebook_values is not None:
            raise CorruptDataError(f"a {cfg.kind.value} tensor embeds no codebook values")

    def indices(self) -> np.ndarray:
        """Unpacked code indices, one per quantized element."""
        return unpack_indices(self.packed_indices, self.config.bits, self.n_quantized)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedTensor):
            return NotImplemented

        def same(a, b):
            if a is None or b is None:
                return (a is None) == (b is None)
            return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

        return (
            self.shape == other.shape
            and self.config == other.config
            and self.packed_indices == other.packed_indices
            and self.n_quantized == other.n_quantized
            and same(self.absmax, other.absmax)
            and same(self.means, other.means)
            and same(self.outlier_dims, other.outlier_dims)
            and same(self.outlier_rows, other.outlier_rows)
            and same(self.codebook_values, other.codebook_values)
        )


def block_count(n: int, block_size: int | None) -> int:
    """Blocks covering n elements; block_size None is one block of all of them."""
    return -(-n // (block_size or max(n, 1)))


def to_float16(x) -> np.ndarray:
    """Round to binary16 (round-to-nearest-even), saturating at +-65504."""
    y = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = y.astype(np.float16)
    overflow = np.isinf(out) & np.isfinite(y)
    if np.any(overflow):
        out = np.where(overflow, np.sign(y).astype(np.float16) * np.float16(FLOAT16_MAX), out)
    return out


def _stored16(x, what: str) -> np.ndarray:
    """to_float16 of values that must not saturate: |v| >= 65520 rounds past 65504."""
    if np.any(np.abs(x) >= FLOAT16_MAX + 16):
        raise InvalidValueError(f"{what} beyond the binary16 range (|v| >= 65520)")
    return to_float16(x)


def lookup_indices(codebook: Codebook, x) -> np.ndarray:
    """Nearest-code index for each element, ties toward the smaller index.

    The index is the number of Codebook.thresholds strictly below the
    element, as searchsorted(thresholds, x, "left") counts it: Codebook.cells gives
    the count before x's cell (cells are monotone in x), and branchless bisection adds
    those inside it. The thresholds are exact, so this equals the two-sided rule
    (x - v[j]) <= (v[j+1] - x) bit for bit, ties included; out-of-range x clamps.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidValueError("cannot look up non-finite values")
    start, padded, probes = codebook.cells
    pos = start.take(cell_index(arr, start.size - 1)).astype(np.intp)
    for i in reversed(range(probes)):
        pos += (padded[(1 << i) - 1 :].take(pos) < arr).view(np.uint8) << i
    return pos


def lookup_index(codebook: Codebook, x: float) -> int:
    """Scalar form of lookup_indices."""
    return int(lookup_indices(codebook, np.asarray(float(x))))


def _lane_step(w: int, k: int):
    """(shift, even mask, odd mask) of the merge of w-bit fields into 2w-bit ones.

    Each w-bit field holds (w/8)*k code bits at its bottom; packing shifts
    every odd field down onto its even neighbour.
    """
    used = (w // 8) * k
    base = 0xFFFF_FFFF_FFFF_FFFF // ((1 << 2 * w) - 1)  # lowest bit of each 2w-bit field
    even = base * ((1 << used) - 1)
    return np.uint64(w - used), np.uint64(even), np.uint64(even << w)


def pack_indices(indices, k: int) -> bytes:
    """Pack code indices into a little-endian bitstream, k bits each.

    Code i occupies stream bits [i*k, (i+1)*k), bytes filled LSB-first,
    the final byte zero-padded. Eight codes fill exactly k bytes, so each
    group of eight is loaded one code per byte into a uint64 word lane and
    merged (byte pairs, then 16- and 32-bit halves) into its low 8k bits,
    whose low k bytes are the group's share of the stream.
    """
    _check_bits(k)
    arr = np.asarray(indices).ravel()
    if arr.size == 0:
        return b""
    if np.any(arr < 0) or np.any(arr >= 2**k):
        raise InvalidValueError(f"indices must be in [0, 2^{k})")
    groups = -(-arr.size // 8)
    lanes = np.zeros((groups, 8), dtype=np.uint8)
    lanes.reshape(-1)[: arr.size] = arr
    words = lanes.view("<u8")
    for w in (8, 16, 32):
        shift, even, odd = _lane_step(w, k)
        if shift:
            moved = words & odd
            moved >>= shift
            words &= even
            words |= moved
    return lanes[:, :k].tobytes()[: -(-arr.size * k // 8)]


def unpack_indices(data: bytes, k: int, count: int) -> np.ndarray:
    """Inverse of pack_indices: recover `count` k-bit indices.

    Each k-byte group is loaded into a uint64 lane and the merges undone.
    """
    _check_bits(k)
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    needed = -(-count * k // 8)
    if len(data) < needed:
        raise LengthError(f"need {needed} bytes for {count} {k}-bit indices, got {len(data)}")
    groups = -(-count // 8)
    stream = np.zeros(groups * k, dtype=np.uint8)
    stream[:needed] = np.frombuffer(data, dtype=np.uint8, count=needed)
    lanes = np.zeros((groups, 8), dtype=np.uint8)
    lanes[:, :k] = stream.reshape(groups, k)
    words = lanes.view("<u8")
    for w in (32, 16, 8):
        shift, even, odd = _lane_step(w, k)
        if shift:
            moved = words << shift
            moved &= odd
            words &= even
            words |= moved
    return lanes.reshape(-1)[:count]


# Elements per slab of whole blocks; bounds the encoder's and decoder's temporaries.
_SLAB_ELEMENTS = 1 << 18


def _slabs(n: int, block_size: int):
    """Yield (lo, hi, blocks): element range and block slice of each slab of whole blocks."""
    step = block_size * max(1, _SLAB_ELEMENTS // block_size)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield lo, hi, slice(lo // block_size, -(-hi // block_size))


def _block_layout(n: int, block_size: int):
    starts = np.arange(0, n, block_size)
    counts = np.diff(np.append(starts, n))
    return starts, counts


def _normalize(x: np.ndarray, block_size: int, centered: bool):
    """Blockwise normalization of a slab of whole blocks.

    Returns (normalized, absmax16, means16). Means come from
    np.add.reduceat, which sums each block on its own. Blocks whose absmax
    is zero normalize to 0.0, which looks up to the codebook's zero code.
    """
    starts, counts = _block_layout(x.size, block_size)
    means16 = None
    if centered:
        means16 = to_float16(np.add.reduceat(x, starts) / counts)
        x = x - np.repeat(means16.astype(np.float64), counts)
    absmax16 = _stored16(np.maximum.reduceat(np.abs(x), starts), "block constant")
    live = absmax16 > 0
    scale = np.where(live, absmax16.astype(np.float64), 1.0)
    normalized = x / np.repeat(scale, counts)
    if not live.all():
        normalized[np.repeat(~live, counts)] = 0.0
    return normalized, absmax16, means16


def _encode_blocks(flat: np.ndarray, codebook: Codebook, config: QuantConfig):
    """Quantize a flat array; returns (indices, absmax16, means16)."""
    n = flat.size
    b = config.block_size or max(n, 1)
    n_blocks = block_count(n, config.block_size)
    indices = np.empty(n, dtype=np.uint8)
    absmax16 = np.empty(n_blocks, dtype=np.float16)
    means16 = np.empty(n_blocks, dtype=np.float16) if config.centered else None
    for lo, hi, blocks in _slabs(n, b):
        normalized, slab_absmax, slab_means = _normalize(flat[lo:hi], b, config.centered)
        absmax16[blocks] = slab_absmax
        if means16 is not None:
            means16[blocks] = slab_means
        indices[lo:hi] = lookup_indices(codebook, normalized)
    return indices, absmax16, means16


def _check_input(t) -> np.ndarray:
    arr = np.asarray(t, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("cannot quantize an empty tensor")
    if not np.all(np.isfinite(arr)):
        raise InvalidValueError("tensor contains non-finite values")
    return arr


def _check_codebook_config(codebook: Codebook, config: QuantConfig, embedded=None) -> None:
    """Reject a codebook other than the config's fixed one, or a quantile tensor's embedded one."""
    if config.kind is CodebookKind.QUANTILE:
        expected = embedded
    else:
        expected = _fixed_codebook(config.kind, config.bits, config.exponent_bits).values
    if (
        codebook.kind is not config.kind
        or codebook.bits != config.bits
        or (expected is not None and not np.array_equal(codebook.values, expected))
    ):
        raise InvalidSpecError(
            f"codebook ({codebook.kind.value}, {codebook.bits}b) differs from the one "
            f"config ({config.kind.value}, {config.bits}b) calls for"
        )


def quantize_tensor(t, codebook: Codebook, config: QuantConfig) -> QuantizedTensor:
    """Quantize a tensor of any shape with no outlier sidecar."""
    arr = _check_input(t)
    _check_codebook_config(codebook, config)
    return _quantize(arr, np.zeros(0, dtype=np.int32), codebook, config)


def _quantize(arr, dims, codebook: Codebook, config: QuantConfig) -> QuantizedTensor:
    """Quantize arr except its rows in dims (sorted, unique), kept at 16 bits."""
    rows = _stored16(arr[dims], "outlier value").reshape(dims.size, -1 if dims.size else 0)
    rest = np.delete(arr, dims, axis=0).ravel() if dims.size else arr.ravel()
    indices, absmax16, means16 = _encode_blocks(rest, codebook, config)
    return QuantizedTensor(
        shape=tuple(arr.shape),
        config=config,
        packed_indices=pack_indices(indices, config.bits),
        n_quantized=int(rest.size),
        absmax=absmax16,
        means=means16,
        outlier_dims=dims,
        outlier_rows=rows,
        codebook_values=codebook.values.copy() if config.kind is CodebookKind.QUANTILE else None,
    )


def reconstruct_codebook(q: QuantizedTensor) -> Codebook:
    """Rebuild the codebook a tensor was quantized with.

    Int, float, and dynamic codebooks are regenerated from the config;
    quantile codebooks come from the values embedded in the tensor.
    """
    cfg = q.config
    if cfg.kind is CodebookKind.QUANTILE:
        try:
            return Codebook(CodebookKind.QUANTILE, cfg.bits, q.codebook_values)
        except InvalidSpecError as exc:  # also a missing (None) book
            raise CorruptDataError(f"embedded quantile codebook is invalid: {exc}") from exc
    return _fixed_codebook(cfg.kind, cfg.bits, cfg.exponent_bits)


def _fixed_codebook(kind: CodebookKind, bits: int, exponent_bits: int | None) -> Codebook:
    """The int, float or dynamic codebook of a width; exponent_bits only shapes floats."""
    if kind is CodebookKind.INT:
        return build_int_codebook(bits)
    if kind is CodebookKind.FLOAT:
        e = exponent_bits or default_exponent_bits(bits)
        return build_float_codebook(FloatSpec(bits, e))
    if kind is CodebookKind.DYNAMIC:
        return build_dynamic_codebook(DynamicSpec(bits))
    raise InvalidSpecError(f"no fixed codebook for kind {kind.value!r}")


def codebook_for(t, config: QuantConfig) -> Codebook:
    """Build the codebook a config calls for, estimating from `t` if needed.

    Quantile codebooks are estimated from the blockwise-normalized values
    of the tensor itself, i.e. from the distribution the lookup will
    actually see (for whole-tensor blocks this coincides with the
    absmax-normalized tensor).
    """
    if config.kind is not CodebookKind.QUANTILE:
        return _fixed_codebook(config.kind, config.bits, config.exponent_bits)
    arr = _check_input(t).ravel()
    b = config.block_size or arr.size
    sample = np.empty(arr.size)
    for lo, hi, _ in _slabs(arr.size, b):
        sample[lo:hi] = _normalize(arr[lo:hi], b, config.centered)[0]
    if not np.any(sample):
        raise InvalidValueError("cannot estimate a quantile codebook from an all-zero tensor")
    return build_quantile_codebook(QuantileSpec(config.bits, sample))


def _decoded_slabs(q: QuantizedTensor, codebook: Codebook | None = None):
    """Check q as dequantize_tensor does; yield (lo, hi, codes, values) of each decoded slab."""
    q.validate()
    if codebook is None:
        codebook = reconstruct_codebook(q)
    else:
        _check_codebook_config(codebook, q.config, q.codebook_values)
    indices = q.indices()
    if indices.size and int(indices.max()) >= len(codebook):
        raise CorruptDataError(
            f"index {int(indices.max())} out of range for {len(codebook)}-code codebook"
        )

    def decode():
        for lo, hi, blocks in _slabs(q.n_quantized, q.block_size):
            counts = _block_layout(hi - lo, q.block_size)[1]
            values = codebook.values[indices[lo:hi]]
            values *= np.repeat(q.absmax[blocks].astype(np.float64), counts)
            if q.means is not None:
                values += np.repeat(q.means[blocks].astype(np.float64), counts)
            yield lo, hi, indices[lo:hi], values
    return decode()


def dequantize_tensor(q: QuantizedTensor, codebook: Codebook | None = None) -> np.ndarray:
    """Decode a quantized tensor back to real values.

    Looks up each code, scales by the block constant, re-adds the block
    mean when present, and restores outlier rows from the sidecar. If no
    codebook is passed it is reconstructed from the tensor itself; one
    passed in must equal it (see _check_codebook_config).
    """
    slabs = _decoded_slabs(q, codebook)  # checks q before n_quantized sizes anything
    decoded = np.empty(q.n_quantized)
    for lo, hi, _, values in slabs:
        decoded[lo:hi] = values

    if q.outlier_dims.size == 0:
        return decoded.reshape(q.shape)

    h = q.shape[0]
    out = np.empty(q.shape, dtype=np.float64)
    keep = np.ones(h, dtype=bool)
    keep[q.outlier_dims] = False
    out[keep] = decoded.reshape(int(keep.sum()), *q.shape[1:])
    out[q.outlier_dims] = q.outlier_rows.astype(np.float64).reshape(-1, *q.shape[1:])
    return out
