"""Tensor file I/O: full-precision containers and packed KBQ files.

Containers follow the common JSON-header binary layout: an 8-byte
little-endian header length, a JSON table mapping tensor names to dtype
(F32/F16), shape, and [begin, end) offsets into the data region that
follows. Quantized tensors are serialized in the KBQ1 format: a 4-byte
magic, a 4-byte little-endian manifest length, a UTF-8 JSON manifest, then
8-byte-aligned binary sections in the order and stored dtypes of
quantizer.KBQ_SECTIONS. All multi-byte integers are little-endian.

Both readers take a file's bytes from a read-only mapping of it, and read
them whole only where the OS maps none (an empty file, a pipe). Container
tensors are views of the mapping; a KBQ section is copied once, into an
array of its tensor's own. Files are written to a sibling and
renamed over the path, so a mapping keeps the bytes it was made of.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import operator
import os
import struct

import numpy as np

from .codebooks import CodebookKind
from .errors import (
    CorruptDataError,
    DimensionError,
    FormatError,
    LengthError,
    ParseError,
)
from .quantizer import KBQ_SECTIONS, QuantConfig, QuantizedTensor

KBQ_MAGIC = b"KBQ1"
KBQ_VERSION = 1
_ALIGN = 8

_DTYPES = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2")}


class TensorContainer:
    """Lazily addressable view over a JSON-header tensor container."""

    def __init__(self, header: dict, data: bytes | memoryview) -> None:
        self._header = header
        self._data = memoryview(data)

    def names(self) -> list[str]:
        return list(self._header)

    def __contains__(self, name: str) -> bool:
        return name in self._header

    def shape(self, name: str) -> tuple[int, ...]:
        return tuple(self._header[name]["shape"])

    def tensor(self, name: str) -> np.ndarray:
        """One tensor as a read-only array over its stored F32 or F16 bytes, not a copy."""
        entry = self._header[name]
        begin, end = entry["data_offsets"]
        raw = np.frombuffer(self._data[begin:end], dtype=_DTYPES[entry["dtype"]])
        return raw.reshape(entry["shape"])

    def items(self):
        for name in self._header:
            yield name, self.tensor(name)


def _map(path) -> mmap.mmap | bytes:
    """The bytes of the file at path: a read-only mapping of it, or, where the OS maps none
    (an empty file, a pipe), the bytes read from it."""
    with open(path, "rb") as fh:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # ValueError: an empty regular file
            return fh.read()


def read_container(path) -> TensorContainer:
    """Read a container file, validating layout before any tensor access."""
    blob = _map(path)
    if len(blob) < 8:
        raise ParseError(f"{path}: too short for a container header")
    (header_len,) = struct.unpack("<Q", blob[:8])
    if 8 + header_len > len(blob):
        raise LengthError(f"{path}: declared header of {header_len} bytes overruns the file")
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: malformed JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header must be a JSON object")
    header.pop("__metadata__", None)

    data = memoryview(blob)[8 + header_len :]  # tensors are views of it, so no copy
    spans = []
    for name, entry in header.items():
        try:
            dtype, shape = entry["dtype"], entry["shape"]
            begin, end = entry["data_offsets"]
            if not type(begin) is type(end) is int:  # no true, 2.5 or "4"
                raise TypeError(f"data_offsets {[begin, end]!r} are not integers")
        except KeyError as exc:
            raise ParseError(f"{path}: tensor {name!r} is missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: tensor {name!r} entry is malformed: {exc}") from exc
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise ParseError(f"{path}: tensor {name!r} has unsupported dtype {dtype!r}")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ParseError(f"{path}: tensor {name!r} shape {shape!r} is not a list of sizes >= 0")
        expected = math.prod(shape) * _DTYPES[dtype].itemsize
        if end - begin != expected:
            raise ParseError(
                f"{path}: tensor {name!r} spans {end - begin} bytes, shape needs {expected}"
            )
        if begin < 0 or end > len(data):
            raise LengthError(f"{path}: tensor {name!r} data is truncated")
        spans.append((begin, end, name))
    spans.sort()
    for (b0, e0, n0), (b1, e1, n1) in zip(spans, spans[1:]):
        if b1 < e0:
            raise ParseError(f"{path}: tensors {n0!r} and {n1!r} overlap")
    return TensorContainer(header, data)


def write_container(path, tensors: dict[str, np.ndarray]) -> None:
    """Write arrays as a container; float16 stays F16, everything else F32."""
    arrays = [np.asarray(arr) for arr in tensors.values()]
    layout = {name: ("F16" if arr.dtype == np.float16 else "F32", arr.shape)
              for name, arr in zip(tensors, arrays)}
    stream_container(path, layout, arrays)


def stream_container(path, layout: dict[str, tuple[str, tuple[int, ...]]], arrays) -> None:
    """Write a container of layout's (dtype, shape) entries, name by name, from arrays.

    Each array is taken from the iterable arrays only as its bytes are written, so a
    generator of them holds at most one at a time. An array whose shape differs from its
    entry's, or a missing or extra one, raises DimensionError and leaves no file.
    """
    header: dict[str, dict] = {}
    offset = 0
    for name, (dtype, shape) in layout.items():
        nbytes = math.prod(shape) * _DTYPES[dtype].itemsize
        header[name] = {"dtype": dtype, "shape": list(shape),
                        "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")

    def chunks():  # no zip: its reused result tuple would hold each array until the next
        yield struct.pack("<Q", len(encoded))
        yield encoded
        entries = iter(layout.values())
        for arr in arrays:
            dtype, shape = next(entries, ("F32", None))  # None: more arrays than entries
            if np.shape(arr) != shape:
                raise DimensionError(f"an array of shape {np.shape(arr)} for {shape}")
            raw = np.ascontiguousarray(arr, dtype=_DTYPES[dtype])  # a 0-d array comes out 1-d
            yield memoryview(raw)
            del arr, raw  # so that none of this array is held while the next one is made
        if next(entries, None) is not None:
            raise DimensionError("fewer arrays than container entries")

    _write_atomically(path, chunks())


def _write_atomically(path, chunks) -> None:
    """Write chunks to a new sibling file ("xb" keeps the umask mode), then rename it to path."""
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _pad(n: int) -> int:
    return (-n) % _ALIGN


def write_kbq(tensors: dict[str, QuantizedTensor], path) -> None:
    """Serialize quantized tensors, each validated first; read_kbq inverts this bit-exactly."""
    payload: list[np.ndarray | bytes] = []
    relative: list[tuple[str, str, int, int]] = []
    entries: dict[str, dict] = {}
    rel = 0
    for name, q in tensors.items():
        q.validate()
        for sec_name, arr in q.sections().items():
            if arr is None and sec_name == "codebook":  # means is a section even when None
                continue
            code = "<" + KBQ_SECTIONS[sec_name]  # validate() checked arr's dtype, so raw is
            raw = np.ascontiguousarray(() if arr is None else arr, code)  # arr on little-endian
            relative.append((name, sec_name, rel, raw.nbytes))
            payload += [raw, b"\0" * _pad(raw.nbytes)]
            rel += raw.nbytes + _pad(raw.nbytes)
        cfg = q.config
        entries[name] = {
            "shape": list(q.shape),
            "dtype": {
                "kind": cfg.kind.value,
                "bits": cfg.bits,
                "exponent_bits": cfg.exponent_bits,
            },
            "block_size": cfg.block_size,
            "centered": cfg.centered,
            "outlier_fraction": cfg.outlier_fraction,
            "n_quantized": q.n_quantized,
            "sections": {},
        }

    def encode(base: int) -> bytes:
        for name, sec_name, off, length in relative:
            entries[name]["sections"][sec_name] = [base + off, length]
        manifest = {"version": KBQ_VERSION, "tensors": entries}
        # numpy integer shape sizes or n_quantized, which validate() admits, as JSON integers
        return json.dumps(manifest, separators=(",", ":"), default=operator.index).encode("utf-8")

    # Absolute offsets depend on the manifest length, which depends on the
    # offsets' digit counts; iterate to a fixed point (grows monotonically,
    # so this settles within a few rounds).
    base = 0
    while True:
        encoded = encode(base)
        new_base = len(KBQ_MAGIC) + 4 + len(encoded)
        new_base += _pad(new_base)
        if new_base == base:
            break
        base = new_base

    head = KBQ_MAGIC + struct.pack("<I", len(encoded)) + encoded
    _write_atomically(path, [head, b"\0" * _pad(len(head)), *payload])


def _whole(size) -> int:
    """A manifest count: a JSON number equal to an integer (8.0 reads as 8), not a bool."""
    if isinstance(size, bool) or not isinstance(size, (int, float)) or int(size) != size:
        raise CorruptDataError(f"count {size!r} is not an integer")  # int() words inf and NaN
    return int(size)


def read_kbq(path) -> dict[str, QuantizedTensor]:
    """Load a KBQ file back into quantized tensors, each owning its sections."""
    blob = _map(path)
    try:
        return _load_kbq(path, blob)
    finally:
        if isinstance(blob, mmap.mmap):
            blob.close()  # every section was copied out of it


def _load_kbq(path, blob: mmap.mmap | bytes) -> dict[str, QuantizedTensor]:
    if blob[: len(KBQ_MAGIC)] != KBQ_MAGIC:
        raise FormatError(f"{path}: not a KBQ file (bad magic)")
    if len(blob) < len(KBQ_MAGIC) + 4:
        raise CorruptDataError(f"{path}: missing manifest length")
    (manifest_len,) = struct.unpack("<I", blob[4:8])
    if 8 + manifest_len > len(blob):
        raise CorruptDataError(f"{path}: manifest overruns file")
    try:
        manifest = json.loads(blob[8 : 8 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptDataError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors", {}), dict):
        raise CorruptDataError(f"{path}: manifest and its tensors must be JSON objects")
    if manifest.get("version") != KBQ_VERSION:
        raise FormatError(f"{path}: unsupported version {manifest.get('version')!r}")

    out: dict[str, QuantizedTensor] = {}
    for name, entry in manifest.get("tensors", {}).items():
        try:
            dtype, sections = entry["dtype"], entry["sections"]
            config = QuantConfig(dtype["kind"], dtype["bits"], entry["block_size"],
                                 entry["centered"], entry["outlier_fraction"],
                                 dtype["exponent_bits"])

            def sec(what: str, code: str) -> np.ndarray:  # counts: q.validate()
                if what not in sections:
                    raise CorruptDataError(f"missing section {what!r}")
                offset, length = map(_whole, sections[what])
                size = np.dtype(code).itemsize
                if min(offset, length) < 0 or offset + length > len(blob) or length % size:
                    raise CorruptDataError(
                        f"section {what!r} [{offset}, {offset + length}) is not whole "
                        f"{code} values inside the file"
                    )
                return np.frombuffer(blob, "<" + code, length // size, offset).astype(code)

            quantile = config.kind is CodebookKind.QUANTILE  # no other tensor reads a codebook
            got = {what: sec(what, code) for what, code in KBQ_SECTIONS.items()
                   if quantile or what != "codebook"}
            means, dims, rows = got["means"], got["outlier_dims"], got["outlier_rows"]
            q = QuantizedTensor(
                shape=tuple(map(_whole, entry["shape"])),
                config=config,
                packed_indices=got["indices"],
                n_quantized=_whole(entry["n_quantized"]),
                absmax=got["absmax"],
                means=means if config.centered or means.size else None,  # else validate fails
                outlier_dims=dims,
                outlier_rows=rows.reshape(dims.size, rows.size // max(dims.size, 1)),
                codebook_values=got.get("codebook"),
            )
            q.validate()
        except (CorruptDataError, KeyError, TypeError, ValueError, OverflowError) as exc:
            what = "" if isinstance(exc, CorruptDataError) else "invalid manifest entry: "
            raise CorruptDataError(f"{path}: tensor {name!r}: {what}{exc}") from exc
        out[name] = q
    return out
