"""Blockwise quantization and dequantization against a codebook.

The input tensor is flattened row-major and split into blocks. Each block
is optionally centered on its mean, divided by its absolute maximum, and
every element is mapped to the nearest code. Normalization constants and
means are stored as IEEE binary16, so a normalized value can land slightly
outside [-1, 1]; nearest-code lookup clamps it to an extreme code. Blocks
whose absolute maximum rounds to zero store the zero code everywhere,
which reconstructs them exactly.

All operations are pure and block-independent: encoding and decoding walk
slabs of whole blocks, on a pool of one thread per usable CPU (see _pooled),
and no output depends on the slab size or the thread count. Lookup counts
exact decision thresholds through a bucket table cached per codebook, and
codes are packed eight to a uint64 word lane (see pack_indices).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import deque
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
    _is_integer,
)
from .errors import (
    CorruptDataError,
    EmptyInputError,
    InvalidFractionError,
    InvalidIndexError,
    InvalidSpecError,
    InvalidValueError,
    LengthError,
)

FLOAT16_MAX = 65504.0

_QUANTIZABLE_KINDS = {  # by value; a CodebookKind is a str, so it finds itself
    k.value: k
    for k in (CodebookKind.INT, CodebookKind.FLOAT, CodebookKind.DYNAMIC, CodebookKind.QUANTILE)
}


@dataclass(frozen=True)
class QuantConfig:
    """Full description of a quantization method, whose fields are checked here alone.

    kind is a CodebookKind or its value; bits, block_size and exponent_bits are (numpy)
    integers, not bools; centered is a bool, 0 or 1; outlier_fraction is an integer or
    float in [0, 1); each is stored as one Python type. block_size None means one block
    spanning the whole tensor. The outlier fraction is the share of input dimensions kept
    at 16 bits; it only takes effect through an explicit index set (see the outliers
    module) but always participates in bit accounting.
    """

    kind: CodebookKind
    bits: int
    block_size: int | None = None
    centered: bool = False
    outlier_fraction: float = 0.0
    exponent_bits: int | None = None

    def __post_init__(self) -> None:
        kind = _QUANTIZABLE_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None:
            raise InvalidSpecError(f"cannot quantize with codebook kind {self.kind!r}")
        bits = _check_bits(self.bits, low=3 if kind is CodebookKind.FLOAT else 2)
        b, c, p, e = self.block_size, self.centered, self.outlier_fraction, self.exponent_bits
        if b is not None and not (_is_integer(b) and b >= 1):
            raise InvalidSpecError(f"block size must be an integer >= 1, got {b!r}")
        if not isinstance(c, (int, np.integer, np.bool_)) or c not in (0, 1):
            raise InvalidSpecError(f"centered must be a bool, 0 or 1, got {c!r}")
        if not (isinstance(p, (float, np.floating)) or _is_integer(p)) or not 0 <= p < 1:
            raise InvalidFractionError(f"outlier fraction must be in [0, 1), got {p!r}")
        if e is not None and kind is not CodebookKind.FLOAT:
            raise InvalidSpecError("exponent_bits only applies to the float kind")
        if e is not None and not (_is_integer(e) and 1 <= e < bits):
            raise InvalidSpecError(f"exponent_bits must be an integer in [1, bits), got {e!r}")
        vars(self).update(kind=kind, bits=bits, block_size=b and int(b), centered=bool(c),
                          outlier_fraction=float(p), exponent_bits=e and int(e))


# A tensor's KBQ sections in file order: name -> stored (little-endian) dtype.
KBQ_SECTIONS = {"indices": "u1", "absmax": "f2", "means": "f2", "outlier_dims": "i4",
                "outlier_rows": "f2", "codebook": "f8"}


def section_counts(config: QuantConfig, n_quantized: int, n_dims: int, n_outlier_values: int,
                   n_codes: int) -> dict[str, int]:
    """Values in each KBQ section of a tensor with these counts; means only when centered."""
    n_blocks = block_count(n_quantized, config.block_size)
    return {"indices": -(-n_quantized * config.bits // 8), "absmax": n_blocks,
            "means": n_blocks if config.centered else 0, "outlier_dims": n_dims,
            "outlier_rows": n_outlier_values, "codebook": n_codes}


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

    def sections(self) -> dict[str, np.ndarray | None]:
        """The tensor's arrays by KBQ section name; means and codebook may be None."""
        return {"indices": np.frombuffer(self.packed_indices, KBQ_SECTIONS["indices"]),
                "absmax": self.absmax, "means": self.means, "outlier_dims": self.outlier_dims,
                "outlier_rows": self.outlier_rows, "codebook": self.codebook_values}

    def validate(self) -> None:
        """Raise CorruptDataError unless the decoder can honour this tensor.

        shape is a tuple, config a QuantConfig and packed_indices bytes; shape sizes and
        n_quantized are integers >= 0; each section is an ndarray of its KBQ_SECTIONS dtype
        and section_counts' size, where quantized elements and outlier rows of width
        prod(shape[1:]) split the shape and outlier dims ascend strictly within [0, shape[0]);
        means are given iff centered; only a quantile tensor embeds a (valid) codebook.
        """
        for name, kind in (("shape", tuple), ("config", QuantConfig), ("packed_indices", bytes)):
            if not isinstance(vars(self)[name], kind):
                raise CorruptDataError(f"{name} is a {type(vars(self)[name]).__name__}, "
                                       f"not a {kind.__name__}")
        shape, dims, cfg, arrays = self.shape, self.outlier_dims, self.config, self.sections()
        if not all(_is_integer(s) and s >= 0 for s in (*shape, self.n_quantized)):
            raise CorruptDataError(f"negative size or non-integer in shape {list(shape)} "
                                   f"or n_quantized {self.n_quantized!r}")
        for name, code in KBQ_SECTIONS.items():
            a = arrays[name]
            if a is not None and not (isinstance(a, np.ndarray) and a.dtype == code):
                raise CorruptDataError(f"{name} holds {getattr(a, 'dtype', type(a).__name__)}, "
                                       f"not {np.dtype(code)}")
        n_rows = shape[0] if shape else 0
        if dims.size and (dims[0] < 0 or dims[-1] >= n_rows or np.any(np.diff(dims) <= 0)):
            raise CorruptDataError(f"outlier dims must be strictly ascending in [0, {n_rows})")
        if (self.means is not None) != cfg.centered:
            raise CorruptDataError(f"means must be present iff centered, which is {cfg.centered}")
        n_out = dims.size * math.prod(shape[1:])
        found = {name: 0 if a is None else a.size for name, a in arrays.items()}
        needed = section_counts(cfg, self.n_quantized, dims.size, n_out, found["codebook"])
        if self.n_quantized + n_out != math.prod(shape) or found != needed:
            raise CorruptDataError(f"{self.n_quantized} quantized elements and section sizes "
                                   f"{found}; shape {list(shape)} with {dims.size} outlier rows "
                                   f"needs {math.prod(shape) - n_out} and {needed}")
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

        def same(a, b):  # an array equals only an array of its dtype, shape and values
            if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            return not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray) and a == b

        mine, theirs = vars(self), vars(other)
        return mine.keys() == theirs.keys() and all(same(v, theirs[k]) for k, v in mine.items())


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
    if np.any(np.abs(x) >= np.float64(FLOAT16_MAX + 16)):  # a float16 bound would be inf
        raise InvalidValueError(f"{what} beyond the binary16 range (|v| >= 65520)")
    return to_float16(x)


def lookup_indices(codebook: Codebook, x, check_finite: bool = True) -> np.ndarray:
    """Nearest-code index for each element, ties toward the smaller index.

    The index is the number of Codebook.thresholds strictly below the
    element, as searchsorted(thresholds, x, "left") counts it: Codebook.cells gives
    the count before x's cell (cells are monotone in x), and branchless bisection adds
    those inside it. The thresholds are exact, so this equals the two-sided rule
    (x - v[j]) <= (v[j+1] - x) bit for bit, ties included; out-of-range x clamps.
    check_finite=False skips the finiteness test, for values the caller has tested.
    """
    arr = np.asarray(x, dtype=np.float64)
    if check_finite and not np.all(np.isfinite(arr)):
        raise InvalidValueError("cannot look up non-finite values")
    start, padded, probes = codebook.cells
    pos = start.take(cell_index(arr, start.size - 1)).astype(np.intp)
    for i in reversed(range(probes)):
        pos += (padded[(1 << i) - 1 :].take(pos) < arr).view(np.uint8) << i
    return pos


def lookup_index(codebook: Codebook, x: float) -> int:
    """Scalar form of lookup_indices."""
    return int(lookup_indices(codebook, np.asarray(float(x))))


# Elements per slab of whole blocks; bounds the encoder's and decoder's temporaries.
_SLAB_ELEMENTS = 1 << 18
# Elements per lookup_indices call; bounds the lookup's temporaries within a slab.
_LOOKUP_ELEMENTS = 1 << 16
# Threads of the slab pool: the CPUs this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@functools.cache
def _pool(workers: int, pid: int):
    """This process's slab pool; a forked child, which has none of its threads, starts its own."""
    from concurrent.futures import ThreadPoolExecutor  # on first use: 10 ms of start-up

    return ThreadPoolExecutor(workers, thread_name_prefix="kbitq-slab")


def _pooled(fn, items):
    """Yield fn(*item) for each item in order; fn must not call _pooled itself.

    The calls run on the slab pool, at most _WORKERS of them at a time; with one worker
    or one item they all run here, on the caller, and no thread is started. The first
    call to raise, in item order, raises here; the calls not yet started are cancelled
    and those running are awaited. Each call writes only its own item's slices of an
    output, so no output depends on the number of workers.
    """
    items = iter(items)
    head = list(itertools.islice(items, 2))
    items = itertools.chain(head, items)
    if _WORKERS < 2 or len(head) < 2:
        yield from itertools.starmap(fn, items)
        return
    pool, pending = _pool(_WORKERS, os.getpid()), deque()
    try:
        for item in items:
            if len(pending) == _WORKERS:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            if not future.cancel():
                future.exception()  # waits for a running call; raises nothing


def _lane_ranges(groups: int):
    """Split word lanes [0, groups) into ranges of a slab's codes, one lane per 8 codes."""
    step = max(_SLAB_ELEMENTS // 8, 1)
    return ((a, min(a + step, groups)) for a in range(0, groups, step))


def _lane_step(w: int, k: int):
    """(shift, even mask, odd mask) of the merge of w-bit fields into 2w-bit ones.

    Each w-bit field holds (w/8)*k code bits at its bottom; packing shifts
    every odd field down onto its even neighbour.
    """
    used = (w // 8) * k
    base = 0xFFFF_FFFF_FFFF_FFFF // ((1 << 2 * w) - 1)  # lowest bit of each 2w-bit field
    even = base * ((1 << used) - 1)
    return np.uint64(w - used), np.uint64(even), np.uint64(even << w)


def _merge_lanes(words: np.ndarray, k: int, pack: bool) -> None:
    """Make pack_indices' merges of each uint64 lane in words, in place, or undo them."""
    for w in (8, 16, 32) if pack else (32, 16, 8):
        shift, even, odd = _lane_step(w, k)
        if shift:
            moved = (words & odd) >> shift if pack else (words << shift) & odd
            words &= even
            words |= moved


def pack_indices(indices, k: int) -> bytes:
    """Pack code indices into a little-endian bitstream, k bits each.

    Code i occupies stream bits [i*k, (i+1)*k), bytes filled LSB-first,
    the final byte zero-padded. Eight codes fill exactly k bytes, so each
    group of eight is loaded one code per byte into a uint64 word lane and
    merged (byte pairs, then 16- and 32-bit halves) into its low 8k bits,
    whose low k bytes are the group's share of the stream. The merges are
    lane by lane, so ranges of lanes run on the slab pool.
    """
    _check_bits(k)
    arr = np.asarray(indices).ravel()
    if arr.size == 0:
        return b""
    if arr.min() < 0 or arr.max() >= 2**k:
        raise InvalidValueError(f"indices must be in [0, 2^{k})")
    groups = -(-arr.size // 8)
    stream = np.empty(groups * k, dtype=np.uint8)

    def merge(a: int, b: int) -> None:  # lanes [a, b), stream bytes [a*k, b*k)
        lanes = np.zeros((b - a, 8), dtype=np.uint8)
        part = arr[8 * a : 8 * b]
        lanes.reshape(-1)[: part.size] = part
        _merge_lanes(lanes.view("<u8"), k, pack=True)
        stream[a * k : b * k].reshape(-1, k)[...] = lanes[:, :k]

    list(_pooled(merge, _lane_ranges(groups)))
    return stream[: -(-arr.size * k // 8)].tobytes()


def unpack_indices(data: bytes, k: int, count: int) -> np.ndarray:
    """Inverse of pack_indices: recover `count` k-bit indices.

    Each k-byte group is loaded into a uint64 lane and the merges undone,
    ranges of lanes on the slab pool.
    """
    _check_bits(k)
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    needed = -(-count * k // 8)
    if len(data) < needed:
        raise LengthError(f"need {needed} bytes for {count} {k}-bit indices, got {len(data)}")
    groups = -(-count // 8)
    stream = np.frombuffer(data, dtype=np.uint8, count=needed)
    lanes = np.zeros((groups, 8), dtype=np.uint8)

    def merge(a: int, b: int) -> None:  # lanes [a, b)
        part = stream[a * k : b * k]
        whole = part.size // k
        lanes[a : a + whole, :k] = part[: whole * k].reshape(whole, k)
        lanes[a + whole : b, : part.size % k] = part[whole * k :]  # the stream's last group
        _merge_lanes(lanes[a:b].view("<u8"), k, pack=False)

    list(_pooled(merge, _lane_ranges(groups)))
    return lanes.reshape(-1)[:count]


def _kept_slabs(t: np.ndarray, dims, block_size: int):
    """Yield (lo, hi, blocks, pieces) of each slab of whole blocks of t's kept elements.

    Kept elements lie outside t's rows in dims (sorted, unique), in row-major order;
    blocks slices the slab's blocks, and pieces are the views of t that hold kept
    elements [lo, hi). A 0-d t is one element.
    """
    flat, width = t.reshape(-1), math.prod(t.shape[1:])
    rows = np.asarray(dims, dtype=np.int64) * width
    starts, stops = np.append(0, rows + width), np.append(rows, flat.size)  # runs of kept rows
    lengths = stops - starts
    ends = np.cumsum(lengths)  # where each run ends among the kept elements
    n, step = int(ends[-1]), block_size * max(1, _SLAB_ELEMENTS // block_size)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        runs = range(np.searchsorted(ends, lo, "right"), np.searchsorted(ends, hi) + 1)
        yield lo, hi, slice(lo // block_size, -(-hi // block_size)), [
            flat[starts[r] + max(lo - ends[r] + lengths[r], 0) : stops[r] - max(ends[r] - hi, 0)]
            for r in runs]


def _float64(pieces) -> np.ndarray:
    """A slab's kept elements, from its _kept_slabs pieces, cast to float64."""
    return (pieces[0].astype(np.float64, copy=False) if len(pieces) == 1
            else np.concatenate(pieces, dtype=np.float64))


def _normalized_slabs(t: np.ndarray, dims, block_size: int, centered: bool):
    """_normalize of each kept-row slab of t, on the slab pool, in slab order."""
    return _pooled(lambda *slab: _normalize(_float64(slab[3]), block_size, centered),
                   _kept_slabs(t, dims, block_size))


def _block_layout(n: int, block_size: int):
    starts = np.arange(0, n, block_size)
    counts = np.diff(np.append(starts, n))
    return starts, counts


def _blocks(a: np.ndarray, block_size: int):
    """(whole, short): a's whole blocks as an (n, block_size) view, and its short last block."""
    cut = a.size - a.size % block_size
    return a[:cut].reshape(-1, block_size), a[cut:]


def _blockwise(op, x: np.ndarray, per_block: np.ndarray, block_size: int, out: np.ndarray):
    """out = op(x, per_block's value of each element's block), x and out contiguous."""
    (whole, short), (whole_out, short_out) = _blocks(x, block_size), _blocks(out, block_size)
    op(whole, per_block[: len(whole), None], out=whole_out)
    if short.size:
        op(short, per_block[-1], out=short_out)
    return out


def _normalize(x: np.ndarray, block_size: int, centered: bool):
    """Blockwise normalization of a float64 slab of whole blocks.

    Returns (normalized, absmax16, means16). Means come from
    np.add.reduceat, which sums each block on its own. Blocks whose absmax
    is zero normalize to +0.0, which looks up to the codebook's zero code.
    """
    starts, counts = _block_layout(x.size, block_size)
    out, means16 = np.empty_like(x), None
    if centered:
        means16 = to_float16(np.add.reduceat(x, starts) / counts)
        x = _blockwise(np.subtract, x, means16.astype(np.float64), block_size, out)
    magnitudes = np.abs(x, out=None if centered else out)  # out is still free when uncentered
    absmax16 = _stored16(np.maximum.reduceat(magnitudes, starts), "block constant")
    live = absmax16 > 0
    scale = np.where(live, absmax16.astype(np.float64), 1.0)
    normalized = _blockwise(np.divide, x, scale, block_size, out)
    if not live.all():  # assigned, since a product with 0 can be -0.0
        whole, short = _blocks(normalized, block_size)
        whole[~live[: len(whole)]] = 0.0
        if not live[-1]:
            short[:] = 0.0
    return normalized, absmax16, means16


def _decode(codebook: Codebook, codes, absmax16, means16, blocks, block_size: int) -> np.ndarray:
    """Float64 values of a slab from its codes and the binary16 absmax16/means16 of its blocks."""
    values = codebook.values[codes]
    _blockwise(np.multiply, values, absmax16[blocks].astype(np.float64), block_size, values)
    if means16 is not None:
        _blockwise(np.add, values, means16[blocks].astype(np.float64), block_size, values)
    return values


def _encode_blocks(t, dims, n: int, codebook: Codebook, config: QuantConfig, held=None, sums=None):
    """Look up and pack the n kept elements of t; returns (packed, absmax16, means16).

    Each kept-row slab is normalized here, unless held[i] holds slab i normalized.
    With sums (an ErrorSums) each slab is decoded and scored while it is held, and
    the slabs' partial sums are folded in slab order.
    """
    block_size, n_blocks = config.block_size or max(n, 1), block_count(n, config.block_size)
    indices = np.empty(n, dtype=np.uint8)
    absmax16 = np.empty(n_blocks, dtype=np.float16)
    means16 = np.empty(n_blocks, dtype=np.float16) if config.centered else None

    def encode(i: int, slab) -> tuple | None:  # writes only slab i's codes and constants
        lo, hi, blocks, pieces = slab
        x = _float64(pieces)
        normalized, absmax16[blocks], slab_means = (
            _normalize(x, block_size, config.centered) if held is None else held[i])
        if means16 is not None:
            means16[blocks] = slab_means
        codes = indices[lo:hi]
        # _check_input tested the whole tensor, so the slab need not be tested again
        for a in range(0, codes.size, _LOOKUP_ELEMENTS):
            codes[a : a + _LOOKUP_ELEMENTS] = lookup_indices(
                codebook, normalized[a : a + _LOOKUP_ELEMENTS], check_finite=False)
        if sums is not None:
            values = _decode(codebook, codes, absmax16, means16, blocks, block_size)
            return sums.partial(x, values, codes, spend=True)
        return None

    for partial in _pooled(encode, enumerate(_kept_slabs(t, dims, block_size))):
        if partial is not None:
            sums.fold(partial)
    return pack_indices(indices, config.bits), absmax16, means16


def _check_input(t) -> np.ndarray:
    """t as a non-empty, finite array: a float ndarray as it is, anything else in float64."""
    arr = t if type(t) is np.ndarray and t.dtype.kind == "f" else np.asarray(t, dtype=np.float64)
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


def quantize_tensor(t, codebook: Codebook | None, config: QuantConfig,
                    sums=None) -> QuantizedTensor:
    """Quantize a tensor of any shape with no outlier sidecar.

    codebook None is the config's own; a quantile one is then estimated from the
    normalized values the lookup reuses, where codebook_for's are normalized anew.
    With sums (an ErrorSums) the tensor is scored as it is encoded (see quantize_group).
    """
    return next(quantize_group(t, (), [config], codebook, [sums]))


def quantize_group(t, dims, configs, codebook: Codebook | None = None, sums=None):
    """Yield t quantized under each config, its rows in dims kept at 16 bits.

    dims holds integers in [0, len(t)), in any order and with repeats. The configs share
    block size and centering, so the kept rows are normalized once, and held only when
    more than one pass reads them. Without a codebook each config takes its own; every
    quantile width comes from one sort of codebook_for's sample. A codebook given must be
    the one every config calls for. sums holds an ErrorSums per config: each slab is
    scored as it is encoded, the outlier rows last, and code_use is set before q is yielded.
    """
    if not configs or len({(c.block_size, c.centered) for c in configs}) > 1:
        raise InvalidSpecError("a group needs one or more configs of one block size and centering")
    if sums is not None and len(sums) != len(configs):
        raise InvalidSpecError(f"{len(configs)} configs need as many sums, got {len(sums)}")
    for config in configs if codebook is not None else ():
        _check_codebook_config(codebook, config)
    arr = _check_input(t)
    dims, n_rows = np.asarray(dims).ravel(), arr.shape[0] if arr.ndim else 0
    if dims.size and (dims.dtype.kind not in "iu" or dims.min() < 0 or dims.max() >= n_rows):
        raise InvalidIndexError(f"outlier rows must be integers in [0, {n_rows}), got {dims}")
    dims = np.unique(dims).astype(np.int32)  # only once checked: the cast wraps rows >= 2^31
    outliers = arr[dims] if dims.size else np.zeros(0)
    rows = _stored16(outliers, "outlier value").reshape(dims.size, -1 if dims.size else 0)
    n = arr.size - rows.size
    block_size, centered = configs[0].block_size or max(n, 1), configs[0].centered
    widths = {c.bits for c in configs if c.kind is CodebookKind.QUANTILE and codebook is None}
    held = (list(_normalized_slabs(arr, dims, block_size, centered))
            if len(configs) > 1 or (widths and not dims.size) else None)
    if widths:
        quantile = _quantile_books(widths, arr, configs[0], None if dims.size else held)
    for config, config_sums in zip(configs, sums or [None] * len(configs)):
        is_quantile = config.kind is CodebookKind.QUANTILE
        book = codebook or (quantile[config.bits] if is_quantile else codebook_for(arr, config))
        packed, absmax16, means16 = _encode_blocks(arr, dims, n, book, config, held, config_sums)
        if config_sums is not None:
            config_sums.end_tensor(outliers, rows, len(book))
        yield QuantizedTensor(
            tuple(arr.shape), config, packed, n, absmax16, means16, dims, rows,
            book.values.copy() if is_quantile else None,
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


@functools.cache
def _fixed_codebook(kind: CodebookKind, bits: int, exponent_bits: int | None) -> Codebook:
    """The int, float or dynamic codebook of a width; exponent_bits only shapes floats."""
    if kind is CodebookKind.INT:
        return build_int_codebook(bits)
    if kind is CodebookKind.FLOAT:
        e = default_exponent_bits(bits) if exponent_bits is None else exponent_bits
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
    return _quantile_books([config.bits], _check_input(t), config)[config.bits]


def _quantile_books(widths, arr, config: QuantConfig, held=None) -> dict[int, Codebook]:
    """Quantile codebook of each width from all of arr's rows normalized under config.

    The values are sorted once. held, the normalized slabs of all rows, saves normalizing.
    """
    block_size = config.block_size or arr.size
    slabs = (held if held is not None
             else _normalized_slabs(arr, (), block_size, config.centered))
    sample, pos = np.empty(arr.size), 0
    for values, *_ in slabs:
        sample[pos : pos + values.size] = values
        pos += values.size
    sample.sort()
    if not (sample[0] or sample[-1]):
        raise InvalidValueError("cannot estimate a quantile codebook from an all-zero tensor")
    return {k: build_quantile_codebook(QuantileSpec(k, sample)) for k in widths}


def _checked_codes(q: QuantizedTensor, codebook: Codebook | None = None):
    """Check q as dequantize_tensor does; return (codebook, codes), codes unpacked."""
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
    return codebook, indices


def dequantize_tensor(q: QuantizedTensor, codebook: Codebook | None = None,
                      dtype=np.float64) -> np.ndarray:
    """Decode a quantized tensor back to real values, computed in float64, cast to dtype.

    Looks up each code, scales by the block constant, re-adds the block
    mean when present, and restores outlier rows from the sidecar. If no
    codebook is passed it is reconstructed from the tensor itself; one
    passed in must equal it (see _check_codebook_config).
    """
    codebook, indices = _checked_codes(q, codebook)  # checks q before its shape sizes anything
    out = np.empty(q.shape, dtype=dtype)

    def decode(lo: int, hi: int, blocks: slice, pieces) -> None:  # writes only its own pieces
        values = _decode(codebook, indices[lo:hi], q.absmax, q.means, blocks, q.block_size)
        for piece in pieces:
            piece[...] = values[: piece.size]
            values = values[piece.size :]

    list(_pooled(decode, _kept_slabs(out, q.outlier_dims, q.block_size)))
    if q.outlier_dims.size:
        out[q.outlier_dims] = q.outlier_rows.reshape(-1, *q.shape[1:])
    return out
