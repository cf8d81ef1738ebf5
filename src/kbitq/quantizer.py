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
and no output depends on the slab size or the thread count. Each thread keeps
its slab-sized temporaries in one reusable workspace (see _scratch). The configs
of a sweep group share one walk: each slab is normalized once and looked up under
every config (see _encode_blocks). A block longer than a slab is cast to one float64
array and normalized in place, then walked as leaves cut along numpy's pairwise-sum
tree (see _leaves), so its error sums are numpy's. Lookup, gather and code marks take
a slab in chunks of 2^16 (see _CHUNK_ELEMENTS). Lookup counts exact decision thresholds
through a bucket table cached per codebook, and codes are packed eight to a uint64
word lane (see pack_indices) as quantize_group yields each tensor; encode_group, the walk
alone, packs none.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
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
    sorted_unique,
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
    packed_indices: np.ndarray
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
        return _block_length(self.n_quantized, self.config.block_size)

    @property
    def n_blocks(self) -> int:
        return block_count(self.n_quantized, self.config.block_size)

    def sections(self) -> dict[str, np.ndarray | None]:
        """The tensor's arrays by KBQ section name; means and codebook may be None."""
        return {"indices": self.packed_indices, "absmax": self.absmax, "means": self.means,
                "outlier_dims": self.outlier_dims, "outlier_rows": self.outlier_rows,
                "codebook": self.codebook_values}

    def validate(self) -> None:
        """Raise CorruptDataError unless the decoder can honour this tensor.

        shape is a tuple and config a QuantConfig; shape sizes and n_quantized are integers
        >= 0; each section, the packed indices among them, is an ndarray of its KBQ_SECTIONS
        dtype and section_counts' size, 1-D but for outlier rows, where quantized elements and
        outlier rows of width prod(shape[1:]) split the shape and outlier dims ascend strictly
        within [0, shape[0]); means are given iff centered; only a quantile tensor embeds a
        (valid) codebook.
        """
        for name, kind in (("shape", tuple), ("config", QuantConfig)):
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
            if a is not None and a.ndim != 1 and name != "outlier_rows":  # rows: any layout
                raise CorruptDataError(f"{name} is {a.ndim}-D, not 1-D")
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


def _block_length(n: int, block_size: int | None) -> int:
    """Elements per block of n: block_size None is one block of all of them (one if n is 0)."""
    return block_size or max(n, 1)


def block_count(n: int, block_size: int | None) -> int:
    """Blocks covering n elements (see _block_length)."""
    return -(-n // _block_length(n, block_size))


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


def lookup_indices(codebook: Codebook, x, check_finite: bool = True, out=None) -> np.ndarray:
    """Nearest-code index for each element, ties toward the smaller index.

    The index is the number of Codebook.thresholds strictly below the
    element, as searchsorted(thresholds, x, "left") counts it: Codebook.cells gives
    the count before x's cell (cells are monotone in x), and branchless bisection adds
    those inside it, its first probe read per cell from Codebook.first_bounds. The
    thresholds are exact, so this equals the two-sided rule
    (x - v[j]) <= (v[j+1] - x) bit for bit, ties included; out-of-range x clamps.
    check_finite=False skips the finiteness test, for values the caller has tested.
    The elements are looked up in chunks of _CHUNK_ELEMENTS, whose temporaries live in
    this thread's workspace (see _scratch). out, a writable C-contiguous array of x's shape
    whose integer dtype holds len(codebook) - 1, receives the indices and is returned; any
    other out raises InvalidValueError. None returns a new intp array.
    """
    arr = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(arr.shape, dtype=np.intp)
    elif not (isinstance(out, np.ndarray) and out.flags.c_contiguous and out.flags.writeable
              and out.shape == arr.shape and out.dtype.kind in "iu"
              and np.iinfo(out.dtype).max >= len(codebook) - 1):
        got = (f"{out.dtype} {out.shape}, C-contiguous {out.flags.c_contiguous}, writable "
               f"{out.flags.writeable}") if isinstance(out, np.ndarray) else type(out).__name__
        raise InvalidValueError(f"out must be a writable C-contiguous integer array of shape "
                                f"{arr.shape} that holds {len(codebook) - 1}, got {got}")
    if check_finite and not np.all(np.isfinite(arr)):
        raise InvalidValueError("cannot look up non-finite values")
    (start, padded, probes), first = codebook.cells, codebook.first_bounds
    values, indices = arr.reshape(-1), out.reshape(-1)
    for a in range(0, values.size, _CHUNK_ELEMENTS):
        chunk = values[a : a + _CHUNK_ELEMENTS]
        m = chunk.size
        work, hits = _scratch("spare", 2 * m), _scratch("index", m, np.uint8)
        scaled, pos = work[:m], work[m:].view(np.intp)[:m]  # an intp is at most 8 bytes
        cell_index(chunk, start.size - 1, pos, scaled)
        # pos is in range; mode "clip" writes straight into out, where "raise" would buffer it
        np.less(first.take(pos, out=scaled, mode="clip"), chunk, out=hits.view(np.bool_))
        # a first hit is a real threshold, so start plus 2^(p-1) stays a uint8 count
        before = start.take(pos, out=scaled.view(np.uint8)[:m], mode="clip")
        if probes == 1:
            np.add(before, hits, out=indices[a : a + m])
            continue
        # each hit adds its probe's step 2^i as a product: numpy's uint8 shifts are 8x slower
        np.add(before, np.multiply(hits, np.uint8(1 << (probes - 1)), out=hits), out=pos)
        for i in reversed(range(probes - 1)):
            bound = padded[(1 << i) - 1 :].take(pos, out=scaled, mode="clip")
            np.less(bound, chunk, out=hits.view(np.bool_))
            pos += np.multiply(hits, np.uint8(1 << i), out=hits)
        indices[a : a + m] = pos
    return out


# Elements per slab of whole blocks; bounds the encoder's and decoder's temporaries.
_SLAB_ELEMENTS = 1 << 18
# Elements per chunk of a slab task's lookup, gather and code marks: numpy releases and
# retakes the GIL around each call, so pool threads contend less on fewer, larger calls.
# A chunk's intp positions (see _widened) take 512 KiB of the workspace.
_CHUNK_ELEMENTS = 1 << 16
# Threads of the slab pool: the CPUs this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# Each thread's reusable slab buffers, by slot name (see _scratch).
_workspace = threading.local()


def _scratch(slot: str, n: int, dtype=np.float64) -> np.ndarray:
    """n elements of dtype in this thread's buffer for slot, reused by every slab it works on.

    Slab tasks keep their slab-sized temporaries here: glibc maps a request of 128 KiB or
    more afresh unless an earlier free raised its dynamic threshold, and each slab would
    then fault those pages in anew. A slot's first buffer has room for its largest request
    of at most _SLAB_ELEMENTS elements, a slab of float64, so it is never replaced; pages it
    leaves untouched are never resident. A longer request gets a new array. The contents last
    until this thread next asks for the slot, so no result may outlive its task, and the
    buffers as long as the thread: a pool thread's, like the main thread's, until exit.
    Slots: "x", a task's input in float64 or its packing lanes; "normalized"; "spare", one
    temporary at a time in task order (the lookup's scaled values and positions, decoded
    values, lane merges); "index", the lookup's uint8 hits or a chunk's intp codes (see
    _widened). Fewer buffers touch fewer pages.
    """
    if n > _SLAB_ELEMENTS:
        return np.empty(n, dtype)
    size = n * np.dtype(dtype).itemsize
    buffers = vars(_workspace)  # this thread's own
    buf = buffers.get(slot)
    if buf is None or buf.size < size:
        buf = buffers[slot] = np.empty(max(size, 8 * _SLAB_ELEMENTS), dtype=np.uint8)
    return buf[:size].view(dtype)


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
    moved = _scratch("spare", words.size, np.uint64).reshape(words.shape)
    for w in (8, 16, 32) if pack else (32, 16, 8):
        shift, even, odd = _lane_step(w, k)
        if shift:
            if pack:
                np.right_shift(np.bitwise_and(words, odd, out=moved), shift, out=moved)
            else:
                np.bitwise_and(np.left_shift(words, shift, out=moved), odd, out=moved)
            words &= even
            words |= moved


def pack_indices(indices, k: int) -> np.ndarray:
    """Pack integer code indices in [0, 2^k) into a little-endian bitstream, k bits each, held
    as a 1-D uint8 array (the KBQ_SECTIONS["indices"] dtype).

    Code i occupies stream bits [i*k, (i+1)*k), bytes filled LSB-first,
    the final byte zero-padded. Eight codes fill exactly k bytes, so each
    group of eight is loaded one code per byte into a uint64 word lane and
    merged (byte pairs, then 16- and 32-bit halves) into its low 8k bits,
    whose low k bytes are the group's share of the stream. The merges are
    lane by lane, so ranges of lanes run on the slab pool.
    """
    _check_bits(k)
    arr = np.asarray(indices).ravel()  # no codes, of any dtype, pack to an empty stream
    if arr.size and arr.dtype.kind not in "iu":
        raise InvalidValueError(f"indices must be integers, got {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= 2**k):
        raise InvalidValueError(f"indices must be in [0, 2^{k})")
    groups = -(-arr.size // 8)
    stream = np.empty(groups * k, dtype=np.uint8)

    def merge(a: int, b: int) -> None:  # lanes [a, b), stream bytes [a*k, b*k)
        lanes = _scratch("x", 8 * (b - a), np.uint8)
        part = arr[8 * a : 8 * b]
        lanes[: part.size] = part
        lanes[part.size :] = 0
        _merge_lanes(lanes.view("<u8"), k, pack=True)
        stream[a * k : b * k].reshape(-1, k)[...] = lanes.reshape(-1, 8)[:, :k]

    list(_pooled(merge, _lane_ranges(groups)))
    return stream[: -(-arr.size * k // 8)]


def unpack_indices(data: np.ndarray, k: int, count: int) -> np.ndarray:
    """Inverse of pack_indices: recover `count` (at least 0) k-bit indices from data, a 1-D
    uint8 array, of any strides, that holds at least their ceil(count * k / 8) bytes. Any
    other data, `bytes` or an integer array of another dtype or shape, raises
    InvalidValueError.

    Each k-byte group is loaded into a uint64 lane and the merges undone,
    ranges of lanes on the slab pool.
    """
    _check_bits(k)
    if count < 0:
        raise InvalidValueError(f"cannot unpack a negative count of indices, got {count}")
    if not (isinstance(data, np.ndarray) and data.ndim == 1 and data.dtype == np.uint8):
        got = f"{data.dtype} {data.shape}" if isinstance(data, np.ndarray) else type(data).__name__
        raise InvalidValueError(f"data must be a 1-D uint8 array, got {got}")
    needed = -(-count * k // 8)
    if len(data) < needed:
        raise LengthError(f"need {needed} bytes for {count} {k}-bit indices, got {len(data)}")
    groups = -(-count // 8)
    stream = data[:needed]
    lanes = np.zeros((groups, 8), dtype=np.uint8)

    def merge(a: int, b: int) -> None:  # lanes [a, b)
        part = stream[a * k : b * k]
        whole = part.size // k
        lanes[a : a + whole, :k] = part[: whole * k].reshape(whole, k)
        lanes[a + whole : b, : part.size % k] = part[whole * k :]  # the stream's last group
        _merge_lanes(lanes[a:b].view("<u8"), k, pack=False)

    list(_pooled(merge, _lane_ranges(groups)))
    return lanes.reshape(-1)[:count]


def _slab_ranges(n: int, block_size: int):
    """[lo, hi) of each slab of whole blocks of n elements: one block if it is longer than
    _SLAB_ELEMENTS, else as many whole blocks as fit in _SLAB_ELEMENTS."""
    step = block_size * max(1, _SLAB_ELEMENTS // block_size)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


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
    for lo, hi in _slab_ranges(int(ends[-1]), block_size):
        runs = range(np.searchsorted(ends, lo, "right"), np.searchsorted(ends, hi) + 1)
        yield lo, hi, slice(lo // block_size, -(-hi // block_size)), [
            flat[starts[r] + max(lo - ends[r] + lengths[r], 0) : stops[r] - max(ends[r] - hi, 0)]
            for r in runs]


def _pairwise_tree(n: int):
    """The halving of a pairwise sum of n values, as numpy's pairwise_sum makes it, down to
    leaves of at most one slab: a leaf is its size, a node a (left, right) pair of subtrees.

    A node's left half is n // 2 rounded down to a multiple of 8. numpy sums 128 values or
    fewer without halving, so no leaf is cut smaller; np.sum of each leaf, added pairwise
    along the tree, is np.sum of all n values, bit for bit.
    """
    if n <= max(_SLAB_ELEMENTS, 128):
        return n
    half = n // 2 - n // 2 % 8
    return _pairwise_tree(half), _pairwise_tree(n - half)


def _leaf_sizes(tree) -> list[int]:
    return [tree] if isinstance(tree, int) else [*_leaf_sizes(tree[0]), *_leaf_sizes(tree[1])]


def _leaves(slab):
    """Yield (lo, hi, blocks, pieces) of each leaf of a _kept_slabs slab, in order.

    A slab of at most _SLAB_ELEMENTS is one leaf; a longer one, a single block, is cut
    along its _pairwise_tree, and each leaf's pieces are views of the slab's.
    """
    lo, hi, blocks, pieces = slab
    offsets = list(itertools.accumulate((p.size for p in pieces), initial=0))
    a = 0
    for size in _leaf_sizes(_pairwise_tree(hi - lo)):
        b = a + size
        yield lo + a, lo + b, blocks, [p[max(a - s, 0) : b - s]
                                       for p, s in zip(pieces, offsets) if s < b and a < s + p.size]
        a = b


def _kept_leaves(t: np.ndarray, dims, block_size: int):
    """The _leaves of every _kept_slabs slab, in order."""
    return itertools.chain.from_iterable(map(_leaves, _kept_slabs(t, dims, block_size)))


def _merged(results, n: int, block_size: int, merge):
    """One result per slab of n elements from its leaves' results (in leaf order): a leaf's
    as it is, a split block's merged with merge(left, right) along its _pairwise_tree."""
    results = iter(results)

    def fold(tree):
        return next(results) if isinstance(tree, int) else merge(fold(tree[0]), fold(tree[1]))

    for lo, hi in _slab_ranges(n, block_size):
        yield fold(_pairwise_tree(hi - lo))


def _check_finite(*arrays: np.ndarray) -> None:
    """Raise InvalidValueError at a NaN or infinity in arrays: block extremes, rows or slabs."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidValueError("tensor contains non-finite values")


def _float64(pieces) -> np.ndarray:
    """A slab's or leaf's kept elements, from its pieces, cast into this thread's workspace
    in float64, whatever the pieces' dtype."""
    return np.concatenate(pieces, out=_scratch("x", sum(p.size for p in pieces)))


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


def _normalize(x: np.ndarray, block_size: int, centered: bool, out=None):
    """Blockwise normalization of a float64 slab of whole blocks.

    Returns (normalized, absmax16, means16), normalized written into out (a new array if
    None), which may be x itself. Each block's max and min, taken first, test it finite (a NaN
    reaches both, an infinity one). Means come from np.add.reduceat, which sums each block on
    its own. absmax is max(max - mean, mean - min) + 0.0: rounding keeps a difference's order
    and sign, so this is max |x - mean| bit for bit, and + 0.0 makes -0.0 +0.0. Blocks whose
    absmax is zero normalize to +0.0, which looks up to the codebook's zero code.
    """
    starts, means16, mean = np.arange(0, x.size, block_size), None, 0.0
    highs, lows = np.maximum.reduceat(x, starts), np.minimum.reduceat(x, starts)
    _check_finite(highs, lows)
    if centered:
        means16 = to_float16(np.add.reduceat(x, starts) / np.diff(np.append(starts, x.size)))
        mean = means16.astype(np.float64)
    absmax16 = _stored16(np.maximum(highs - mean, mean - lows) + 0.0, "block constant")
    out = np.empty_like(x) if out is None else out
    if centered:
        x = _blockwise(np.subtract, x, mean, block_size, out)
    live = absmax16 > 0
    scale = np.where(live, absmax16.astype(np.float64), 1.0)
    normalized = _blockwise(np.divide, x, scale, block_size, out)
    if not live.all():  # assigned, since a product with 0 can be -0.0
        whole, short = _blocks(normalized, block_size)
        whole[~live[: len(whole)]] = 0.0
        if not live[-1]:
            short[:] = 0.0
    return normalized, absmax16, means16


def _widened(codes: np.ndarray):
    """Yield (start, intp copy in this thread's index buffer) of each chunk of 1-D codes."""
    for a in range(0, codes.size, _CHUNK_ELEMENTS):
        positions = _scratch("index", min(codes.size - a, _CHUNK_ELEMENTS), np.intp)
        np.copyto(positions, codes[a : a + positions.size])
        yield a, positions


def _decode(codebook: Codebook, codes, absmax16, means16, blocks, block_size: int) -> np.ndarray:
    """Float64 values of a slab from its codes and the binary16 absmax16/means16 of its blocks,
    in this thread's spare buffer, gathered chunk by chunk (see _widened)."""
    values = _scratch("spare", codes.size)
    for a, positions in _widened(codes):
        codebook.values.take(positions, out=values[a : a + positions.size], mode="clip")
    _blockwise(np.multiply, values, absmax16[blocks].astype(np.float64), block_size, values)
    if means16 is not None:
        _blockwise(np.add, values, means16[blocks].astype(np.float64), block_size, values)
    return values


def _encode_blocks(t, dims, n: int, books, configs, sums):
    """Look up the n kept elements of t under each config's book in one walk of its slabs;
    returns (each config's codes, absmax16, means16), the constants all configs share.

    Each kept-row slab is normalized once, in its own task, and looked up under every config
    while it is in the thread's workspace; a block longer than a slab is normalized whole, in
    place, here, and its leaves (see _leaves) are the tasks. With a config's sums (an ErrorSums,
    or None) each leaf is decoded and scored in its task, its signal summed once for all configs.
    Each config's partials, a slab's leaves merged along its tree, are folded in slab order
    after the walk, so a fault in any slab leaves every ErrorSums as it was.
    """
    block_size, centered = _block_length(n, configs[0].block_size), configs[0].centered
    codes = [np.empty(n, dtype=np.uint8) for _ in configs]
    absmax16 = np.empty(block_count(n, block_size), dtype=np.float16)
    means16 = np.empty_like(absmax16) if centered else None

    def constants(blocks: slice, stats) -> np.ndarray:  # a slab's; returns its normalized values
        normalized, absmax16[blocks], slab_means = stats
        if means16 is not None:
            means16[blocks] = slab_means
        return normalized

    def leaves():  # (leaf, its normalized values, or None to normalize it in its task)
        for slab in _kept_slabs(t, dims, block_size):
            lo, hi, blocks, pieces = slab
            if hi - lo <= _SLAB_ELEMENTS:
                yield slab, None
                continue
            whole = np.concatenate(pieces, dtype=np.float64)
            normalized = constants(blocks, _normalize(whole, block_size, centered, whole))
            for leaf in _leaves(slab):
                yield leaf, normalized[leaf[0] - lo : leaf[1] - lo]

    def encode(leaf, normalized) -> list:  # writes only its own codes and constants
        lo, hi, blocks, pieces = leaf
        x = _float64(pieces)
        if normalized is None:
            normalized = constants(blocks, _normalize(x, block_size, centered,
                                                      _scratch("normalized", x.size)))
        partials, signal = [], None
        for book, out, config_sums in zip(books, codes, sums):
            leaf_codes = lookup_indices(book, normalized, check_finite=False, out=out[lo:hi])
            partial = None
            if config_sums is not None:
                values = _decode(book, leaf_codes, absmax16, means16, blocks, block_size)
                partial = config_sums.partial(x, values, leaf_codes, spend=True, signal=signal,
                                              n_codes=len(book))
                signal = partial[1]
            partials.append(partial)
        return partials

    per_leaf = list(_pooled(encode, leaves()))  # the whole walk, before any sums change
    for config_sums, partials in zip(sums, zip(*per_leaf)):
        if config_sums is not None:
            config_sums.fold(partials, n, block_size)
    return codes, absmax16, means16


def _check_input(t) -> np.ndarray:
    """t as a non-empty array: a float ndarray as it is, anything else in float64. Its values
    are tested finite block by block, as each slab is normalized (see _normalize)."""
    arr = t if type(t) is np.ndarray and t.dtype.kind == "f" else np.asarray(t, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("cannot quantize an empty tensor")
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

    codebook None is the config's own; a quantile one is estimated as codebook_for estimates
    it. With sums (an ErrorSums) the tensor is scored as it is encoded (see encode_group).
    """
    return next(quantize_group(t, (), [config], codebook, [sums]))


def quantize_group(t, dims, configs, codebook: Codebook | None = None, sums=None):
    """Yield t quantized under each config, its rows in dims kept at 16 bits: encode_group's
    walk, then each config's codes packed as its tensor is yielded. Each tensor owns its copy
    of the constants."""
    arr, dims, rows, books, codes, absmax16, means16 = encode_group(t, dims, configs, codebook,
                                                                    sums)
    for config, book in zip(configs, books):
        yield QuantizedTensor(  # codes.pop: each config's codes are dropped once packed
            tuple(arr.shape), config, pack_indices(codes.pop(0), config.bits), arr.size - rows.size,
            absmax16.copy(), None if means16 is None else means16.copy(), dims, rows,
            book.values.copy() if config.kind is CodebookKind.QUANTILE else None,
        )


def encode_group(t, dims, configs, codebook: Codebook | None = None, sums=None):
    """The walk of quantize_group, which packs nothing: returns (arr, dims, rows, books, codes,
    absmax16, means16), t as an array, its sorted outlier rows and their binary16 values, each
    config's book and unpacked codes (one per kept element), and the constants all share.

    dims holds integers in [0, len(t)), in any order and with repeats. The configs share
    block size and centering, so one walk of the kept rows normalizes each slab once and looks
    it up under every config (see _encode_blocks). Without a codebook each config takes its
    own; every quantile width comes from one sort of codebook_for's sample, taken before the
    walk. A codebook given must be the one every config calls for. sums holds an ErrorSums or
    None per config: each slab is scored as it is encoded, the outlier rows last, which sets
    code_use.
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
    dims = sorted_unique(dims).astype(np.int32)  # once checked: the cast wraps rows >= 2^31
    outliers = arr[dims] if dims.size else np.zeros(0)
    _check_finite(outliers)  # no slab holds these rows; _stored16 lets NaN through
    rows = _stored16(outliers, "outlier value").reshape(dims.size, -1 if dims.size else 0)
    sums = sums or [None] * len(configs)
    widths = {c.bits for c in configs if c.kind is CodebookKind.QUANTILE and codebook is None}
    quantile = _quantile_books(widths, arr, configs[0]) if widths else {}
    books = [codebook or (quantile[c.bits] if c.kind is CodebookKind.QUANTILE
                          else codebook_for(arr, c)) for c in configs]
    codes, absmax16, means16 = _encode_blocks(arr, dims, arr.size - rows.size, books, configs, sums)
    for book, config_sums in zip(books, sums):
        if config_sums is not None:
            config_sums.end_tensor(outliers, rows, len(book))
    return arr, dims, rows, books, codes, absmax16, means16


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


def _quantile_books(widths, arr, config: QuantConfig) -> dict[int, Codebook]:
    """Quantile codebook of each width from all of arr's rows normalized under config.

    Each slab is cast into its span of one sample and normalized there, in place, on the
    slab pool, which tests it finite (see _normalize); the sample is then sorted in place.
    """
    sample, block_size = np.empty(arr.size), _block_length(arr.size, config.block_size)
    list(_pooled(lambda lo, hi, blocks, pieces: _normalize(
        np.concatenate(pieces, out=sample[lo:hi]), block_size, config.centered, sample[lo:hi]),
        _kept_slabs(arr, (), block_size)))
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
    passed in must equal it (see _check_codebook_config). A dtype that is not a real float
    type raises InvalidSpecError, since the decoded values would be truncated or wrapped.
    """
    try:
        kind = np.dtype(dtype).kind
    except TypeError:
        kind = None
    if kind != "f":
        raise InvalidSpecError(f"dtype must be a float type, got {dtype!r}")
    codebook, indices = _checked_codes(q, codebook)  # checks q before its shape sizes anything
    out = np.empty(q.shape, dtype=dtype)

    def decode(lo: int, hi: int, blocks: slice, pieces) -> None:  # writes only its own pieces
        values = _decode(codebook, indices[lo:hi], q.absmax, q.means, blocks, q.block_size)
        for piece in pieces:
            piece[...] = values[: piece.size]
            values = values[piece.size :]

    list(_pooled(decode, _kept_leaves(out, q.outlier_dims, q.block_size)))
    if q.outlier_dims.size:
        out[q.outlier_dims] = q.outlier_rows.reshape(-1, *q.shape[1:])
    return out
