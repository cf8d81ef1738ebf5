"""Tensor file I/O: full-precision containers and packed KBQ files.

Containers follow the common JSON-header binary layout: an 8-byte
little-endian header length, a JSON table mapping tensor names to dtype
(F32/F16), shape, and [begin, end) offsets into the data region that
follows. Quantized tensors are serialized in the KBQ1 format: a 4-byte
magic, a 4-byte little-endian manifest length, a UTF-8 JSON manifest, then
8-byte-aligned binary sections (packed indices, binary16 constants and
means, 32-bit outlier dims, binary16 outlier rows, float64 embedded
codebook values). All multi-byte integers are little-endian.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .codebooks import CodebookKind
from .errors import (
    CorruptDataError,
    FormatError,
    LengthError,
    ParseError,
)
from .quantizer import QuantConfig, QuantizedTensor

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
        """Decode one tensor to float32 working precision."""
        entry = self._header[name]
        begin, end = entry["data_offsets"]
        raw = np.frombuffer(self._data[begin:end], dtype=_DTYPES[entry["dtype"]])
        return raw.reshape(entry["shape"]).astype(np.float32)

    def items(self):
        for name in self._header:
            yield name, self.tensor(name)


def read_container(path) -> TensorContainer:
    """Read a container file, validating layout before any tensor access."""
    with open(path, "rb") as fh:
        blob = fh.read()
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

    data = blob[8 + header_len :]
    spans = []
    for name, entry in header.items():
        try:
            dtype, shape = entry["dtype"], entry["shape"]
            begin, end = (int(v) for v in entry["data_offsets"])
        except KeyError as exc:
            raise ParseError(f"{path}: tensor {name!r} is missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: tensor {name!r} entry is malformed: {exc}") from exc
        if dtype not in _DTYPES:
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
    header: dict[str, dict] = {}
    chunks: list[memoryview] = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        dtype = "F16" if arr.dtype == np.float16 else "F32"
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[dtype])
        header[name] = {
            "dtype": dtype,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + raw.nbytes],
        }
        chunks.append(memoryview(raw))
        offset += raw.nbytes
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    _write_atomically(path, [struct.pack("<Q", len(encoded)), encoded, *chunks])


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


def _tensor_sections(q: QuantizedTensor) -> dict[str, bytes]:
    sections = {
        "indices": q.packed_indices,
        "absmax": q.absmax.astype("<f2").tobytes(),
        "means": q.means.astype("<f2").tobytes() if q.means is not None else b"",
        "outlier_dims": q.outlier_dims.astype("<i4").tobytes(),
        "outlier_rows": q.outlier_rows.astype("<f2").tobytes(),
    }
    if q.codebook_values is not None:
        sections["codebook"] = q.codebook_values.astype("<f8").tobytes()
    return sections


def write_kbq(tensors: dict[str, QuantizedTensor], path) -> None:
    """Serialize quantized tensors, each validated first; read_kbq inverts this bit-exactly."""
    payload: list[bytes] = []
    relative: list[tuple[str, str, int, int]] = []
    entries: dict[str, dict] = {}
    rel = 0
    for name, q in tensors.items():
        q.validate()
        for sec_name, raw in _tensor_sections(q).items():
            relative.append((name, sec_name, rel, len(raw)))
            payload.append(raw)
            payload.append(b"\0" * _pad(len(raw)))
            rel += len(raw) + _pad(len(raw))
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
        return json.dumps(manifest, separators=(",", ":")).encode("utf-8")

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


def read_kbq(path) -> dict[str, QuantizedTensor]:
    """Load a KBQ file back into quantized tensors."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
            config = QuantConfig(
                kind=CodebookKind(dtype["kind"]),
                bits=int(dtype["bits"]),
                block_size=entry["block_size"],
                centered=bool(entry["centered"]),
                outlier_fraction=float(entry["outlier_fraction"]),
                exponent_bits=dtype["exponent_bits"],
            )

            def sec(what: str, code: str) -> np.ndarray:  # counts are for q.validate()
                if what not in sections:
                    raise CorruptDataError(f"missing section {what!r}")
                offset, length = sections[what]
                size = np.dtype(code).itemsize
                if min(offset, length) < 0 or offset + length > len(blob) or length % size:
                    raise CorruptDataError(
                        f"section {what!r} [{offset}, {offset + length}) is not whole "
                        f"{code} values inside the file"
                    )
                return np.frombuffer(blob[offset : offset + length], "<" + code).astype(code)

            dims, rows = sec("outlier_dims", "i4"), sec("outlier_rows", "f2")
            means = sec("means", "f2")  # kept if uncentered but not empty, so validate fails
            quantile = config.kind is CodebookKind.QUANTILE
            q = QuantizedTensor(
                shape=tuple(int(s) for s in entry["shape"]),
                config=config,
                packed_indices=sec("indices", "u1").tobytes(),
                n_quantized=int(entry["n_quantized"]),
                absmax=sec("absmax", "f2"),
                means=means if config.centered or means.size else None,
                outlier_dims=dims,
                outlier_rows=rows.reshape(dims.size, rows.size // max(dims.size, 1)),
                codebook_values=sec("codebook", "f8") if quantile else None,
            )
            q.validate()
        except (CorruptDataError, KeyError, TypeError, ValueError) as exc:
            what = "" if isinstance(exc, CorruptDataError) else "invalid manifest entry: "
            raise CorruptDataError(f"{path}: tensor {name!r}: {what}{exc}") from exc
        out[name] = q
    return out
