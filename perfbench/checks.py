"""Output checks that share no code with kbitq.

Everything here is derived from the inputs, the command-line config and
the file formats as documented: codebooks are enumerated from their
definitions, KBQ files are parsed with an independent reader, block
constants are recomputed from the input, and the nearest code is found by
brute-force argmin. Each check returns a list of failure messages; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import Workload, read_container

KBQ_MAGIC = b"KBQ1"
FLOAT16_MAX = 65504.0
# Minifloat exponent widths per total width, as the format specifies.
DEFAULT_EXPONENT_BITS = {3: 2, 4: 2, 5: 2, 6: 3, 7: 3, 8: 3}
SWEEP_COLUMNS = ("kind,bits,exponent_bits,block_size,centered,outlier_p,bits_per_param,"
                 "mae,mse,max_abs_error,snr_db,lossless,utilization")


def int_codebook(k: int) -> np.ndarray:
    m = 2 ** (k - 1) - 1
    return np.array([float(Fraction(j, m)) for j in range(-m, m + 1)])


def float_codebook(k: int) -> np.ndarray:
    """Every sign/exponent/mantissa pattern; zero exponent is subnormal; no reserved codes."""
    e_bits = DEFAULT_EXPONENT_BITS[k]
    m_bits = k - 1 - e_bits
    bias = 2 ** (e_bits - 1)
    magnitudes = set()
    for e in range(2**e_bits):
        for m in range(2**m_bits):
            frac = Fraction(m, 2**m_bits)
            magnitudes.add(Fraction(2) ** (1 - bias) * frac if e == 0
                           else Fraction(2) ** (e - bias) * (1 + frac))
    peak = max(magnitudes)
    values = sorted({sign * v / peak for v in magnitudes for sign in (1, -1)})
    return np.array([float(v) for v in values])


def fixed_codebook(kind: str, k: int) -> np.ndarray:
    return {"int": int_codebook, "float": float_codebook}[kind](k)


def to_float16(x: float) -> np.float16:
    """binary16 round-to-nearest-even, saturating at the largest finite value."""
    return np.float16(min(abs(x), FLOAT16_MAX)) * np.float16(np.sign(x) or 1.0)


def expected_outlier_counts(inputs: dict[str, np.ndarray], p: float) -> dict[str, int]:
    """Rows kept at 16 bits: round-half-up(p * outputs of the previous matrix in a chain)."""
    counts = {name: 0 for name in inputs}
    if p <= 0:
        return counts
    prev = None
    for name, arr in inputs.items():
        if arr.ndim != 2:
            continue
        if prev is not None and prev.shape[1] == arr.shape[0]:
            counts[name] = math.floor(p * prev.shape[1] + 0.5)
        prev = arr
    return counts


def section_bytes(shape, n_dims: int, kind: str, k: int, block: int | None, centered: bool,
                  n_codes: int) -> dict[str, int]:
    """Byte length of each KBQ section from first principles."""
    size = math.prod(shape)
    width = shape[1] if len(shape) > 1 else 1
    n_q = size - n_dims * width
    n_blocks = -(-n_q // (block or max(n_q, 1))) if n_q else 0
    return {
        "indices": -(-n_q * k // 8),
        "absmax": 2 * n_blocks,
        "means": 2 * n_blocks if centered else 0,
        "outlier_dims": 4 * n_dims,
        "outlier_rows": 2 * n_dims * width,
        "codebook": 8 * n_codes if kind == "quantile" else 0,
    }


def read_kbq(path: Path) -> dict[str, dict]:
    """Parse a KBQ1 file: per tensor, its manifest entry and raw section bytes."""
    blob = Path(path).read_bytes()
    if blob[:4] != KBQ_MAGIC:
        raise ValueError("bad magic")
    (length,) = struct.unpack_from("<I", blob, 4)
    manifest = json.loads(blob[8:8 + length].decode("utf-8"))
    if manifest.get("version") != 1:
        raise ValueError(f"unexpected version {manifest.get('version')!r}")
    tensors = {}
    for name, entry in manifest["tensors"].items():
        sections = {}
        for sec, (offset, size) in entry["sections"].items():
            if offset % 8 or offset < 8 + length or offset + size > len(blob):
                raise ValueError(f"{name}/{sec}: section [{offset}, +{size}) is misplaced")
            sections[sec] = blob[offset:offset + size]
        tensors[name] = {"entry": entry, "sections": sections}
    return tensors


def unpack_at(packed: bytes, k: int, positions: np.ndarray) -> np.ndarray:
    """The k-bit indices at the given positions of an LSB-first bitstream."""
    data = np.frombuffer(packed, dtype=np.uint8)
    bit = positions[:, None] * k + np.arange(k)
    bits = (data[bit // 8] >> (bit % 8).astype(np.uint8)) & 1
    return (bits.astype(np.int64) << np.arange(k)).sum(axis=1)


def sample_blocks(n_blocks: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A seeded sample of block numbers that always holds the first and last block."""
    if n_blocks <= count:
        return np.arange(n_blocks)
    middle = rng.choice(np.arange(1, n_blocks - 1), size=count - 2, replace=False)
    return np.sort(np.concatenate([[0, n_blocks - 1], middle]))


class FileChecks:
    """Checks for the quantize/dequantize workloads against one set of inputs."""

    def __init__(self, workload: Workload, inputs: dict[str, np.ndarray], seed: int,
                 blocks_per_tensor: int) -> None:
        self.w = workload
        self.inputs = inputs
        self.seed = seed
        self.blocks_per_tensor = blocks_per_tensor
        self.n_dims = expected_outlier_counts(inputs, workload.outlier_p)
        self.planted = workload.planted_columns(inputs)
        self.kbq: dict[str, dict] | None = None
        self.expected: dict[str, tuple] = {}

    def _codebook(self, name: str) -> np.ndarray:
        if self.w.dtype == "quantile":
            return np.frombuffer(self.kbq[name]["sections"]["codebook"], dtype="<f8")
        return fixed_codebook(self.w.dtype, self.w.bits)

    def check_quantize(self, kbq_path: Path, summary: dict) -> list[str]:
        """The KBQ file and the quantize summary; prepares the decode expectations."""
        w, fails = self.w, []
        try:
            self.kbq = read_kbq(kbq_path)
        except (ValueError, KeyError, TypeError, struct.error) as exc:
            self.kbq = None
            return [f"kbq unreadable: {exc}"]
        if list(self.kbq) != list(self.inputs):
            return [f"kbq tensors {list(self.kbq)} != inputs {list(self.inputs)}"]
        total_bytes = 0
        for t_index, (name, arr) in enumerate(self.inputs.items()):
            entry, sections = self.kbq[name]["entry"], self.kbq[name]["sections"]
            book = self._codebook(name)
            want = {
                "shape": list(arr.shape), "block_size": w.block_size, "centered": w.centered,
                "outlier_fraction": w.outlier_p,
                "dtype": {"kind": w.dtype, "bits": w.bits, "exponent_bits": None},
            }
            for key, value in want.items():
                if entry.get(key) != value:
                    fails.append(f"{name}: manifest {key}={entry.get(key)!r}, expected {value!r}")
            lengths = section_bytes(arr.shape, self.n_dims[name], w.dtype, w.bits, w.block_size,
                                    w.centered, book.size)
            got = {sec: len(sections.get(sec, b"")) for sec in lengths}
            if got != lengths:
                fails.append(f"{name}: section bytes {got}, expected {lengths}")
                continue
            total_bytes += sum(lengths.values())
            fails += self._check_outliers(name, arr, sections)
            fails += self._check_codes(name, t_index, arr, sections, book)
        reported = summary.get("total_model_bits")
        if reported != 8 * total_bytes:
            fails.append(f"total_model_bits {reported!r}, first principles give {8 * total_bytes}")
        tensors = summary.get("tensors", {})
        for name, arr in self.inputs.items():
            got = tensors.get(name, {})
            if got.get("shape") != list(arr.shape) or got.get("outlier_dims") != self.n_dims[name]:
                fails.append(f"{name}: summary shape/outlier_dims {got.get('shape')}, "
                             f"{got.get('outlier_dims')}")
        return fails

    def _check_outliers(self, name: str, arr: np.ndarray, sections: dict) -> list[str]:
        fails = []
        dims = np.frombuffer(sections["outlier_dims"], dtype="<i4")
        if dims.size and (np.any(np.diff(dims) <= 0) or dims[0] < 0 or dims[-1] >= arr.shape[0]):
            fails.append(f"{name}: outlier dims not sorted, unique and in range")
            return fails
        planted = self.planted.get(name)
        if planted is not None and not np.isin(planted, dims).all():
            fails.append(f"{name}: planted rows {np.setdiff1d(planted, dims)} not kept at 16 bits")
        if dims.size:
            want = np.ascontiguousarray(arr[dims].astype("<f2")).tobytes()
            if sections["outlier_rows"] != want:
                fails.append(f"{name}: outlier rows differ from float16(input)")
        return fails

    def _check_codes(self, name, t_index, arr, sections, book) -> list[str]:
        """Nearest code by brute force on sampled blocks, against the packed indices."""
        w = self.w
        dims = np.frombuffer(sections["outlier_dims"], dtype="<i4")
        kept_rows = np.setdiff1d(np.arange(arr.shape[0]), dims) if dims.size else None
        flat = (arr[kept_rows] if kept_rows is not None else arr).reshape(-1)
        n_q = flat.size
        block = w.block_size or n_q
        n_blocks = -(-n_q // block)
        rng = np.random.default_rng([self.seed, t_index])
        absmax = np.frombuffer(sections["absmax"], dtype="<f2")
        means = np.frombuffer(sections["means"], dtype="<f2") if w.centered else None
        positions, indices, values = [], [], []
        fails = []
        for b in sample_blocks(n_blocks, self.blocks_per_tensor, rng):
            pos = np.arange(b * block, min((b + 1) * block, n_q))
            x = flat[pos].astype(np.float64)
            mean = to_float16(math.fsum(x) / x.size) if w.centered else None
            shifted = x - float(mean) if w.centered else x
            scale = to_float16(float(np.max(np.abs(shifted))))
            if scale != absmax[b] or (w.centered and mean != means[b]):
                fails.append(f"{name}: block {b} constants differ from the input's")
                continue
            if scale > 0:
                idx = np.argmin(np.abs(shifted[:, None] / float(scale) - book[None, :]), axis=1)
            else:
                idx = np.full(x.size, np.argmin(np.abs(book)))
            value = book[idx] * float(scale)
            if w.centered:
                value = value + float(mean)
            positions.append(pos)
            indices.append(idx)
            values.append(value.astype(np.float32))
        if not positions:
            return fails
        pos, idx = np.concatenate(positions), np.concatenate(indices)
        got = unpack_at(sections["indices"], w.bits, pos)
        bad = np.flatnonzero(got != idx)
        if bad.size:
            fails.append(f"{name}: {bad.size} sampled indices are not the nearest code "
                         f"(first at quantized element {pos[bad[0]]})")
        if kept_rows is not None:
            width = arr.shape[1]
            full = kept_rows[pos // width] * width + pos % width
        else:
            full = pos
        self.expected[name] = (full, np.concatenate(values))
        return fails

    def check_dequantize(self, decoded_path: Path, summary: dict) -> tuple[list[str], float]:
        """The decoded container; returns failures and the reconstruction SNR in dB."""
        try:
            decoded, dtypes = read_container(decoded_path)
        except (ValueError, KeyError, TypeError, struct.error) as exc:
            return [f"decoded container unreadable: {exc}"], float("nan")
        want_shapes = {name: list(arr.shape) for name, arr in self.inputs.items()}
        if {n: list(a.shape) for n, a in decoded.items()} != want_shapes:
            return ["decoded shapes differ from the inputs"], float("nan")
        fails = []
        if summary.get("tensors") != want_shapes:
            fails.append("dequantize summary shapes differ from the inputs")
        if set(dtypes.values()) != {"F32"}:
            fails.append(f"decoded dtypes {set(dtypes.values())}, expected F32")
        if self.kbq is None:
            fails.append("no readable KBQ to check the decode against")
        for name, arr in self.inputs.items():
            out = decoded[name]
            if name in self.expected:
                full, want = self.expected[name]
                got = out.reshape(-1)[full]
                bad = np.flatnonzero(got.view(np.uint32) != want.view(np.uint32))
                if bad.size:
                    fails.append(f"{name}: {bad.size} sampled decoded values differ "
                                 f"(first at element {full[bad[0]]})")
            if self.kbq is not None:
                dims = np.frombuffer(self.kbq[name]["sections"]["outlier_dims"], dtype="<i4")
                if dims.size and not np.array_equal(
                        out[dims].view(np.uint32),
                        arr[dims].astype(np.float16).astype(np.float32).view(np.uint32)):
                    fails.append(f"{name}: decoded outlier rows differ from float16(input)")
        return fails, snr_db(self.inputs, decoded)


def snr_db(inputs: dict[str, np.ndarray], decoded: dict[str, np.ndarray]) -> float:
    """10 log10(signal power / error power) over every element, in float64."""
    signal = noise = 0.0
    chunk = 1 << 20
    for name, arr in inputs.items():
        a, b = arr.reshape(-1), decoded[name].reshape(-1)
        for start in range(0, a.size, chunk):
            x = a[start:start + chunk].astype(np.float64)
            err = x - b[start:start + chunk].astype(np.float64)
            signal += float(np.dot(x, x))
            noise += float(np.dot(err, err))
    return 10.0 * math.log10(signal / noise) if noise > 0 else float("inf")


def check_sweep(workload: Workload, n_elements: int, text: str) -> list[str]:
    """The sweep CSV: header, one row per config in grid order, exact bits per param."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_COLUMNS:
        return [f"sweep header is {lines[:1]!r}"]
    grid = workload.grid()
    if len(lines) - 1 != len(grid):
        return [f"sweep has {len(lines) - 1} rows, grid has {len(grid)}"]
    fails = []
    for line, (kind, k, block) in zip(lines[1:], grid):
        cell = dict(zip(SWEEP_COLUMNS.split(","), line.split(",")))
        e_bits = str(DEFAULT_EXPONENT_BITS[k]) if kind == "float" else ""
        head = (kind, str(k), e_bits, "whole" if block is None else str(block), "0", "0.0")
        got_head = tuple(cell[c] for c in SWEEP_COLUMNS.split(",")[:6])
        if got_head != head:
            fails.append(f"sweep row {got_head} where grid order needs {head}")
            continue
        lengths = section_bytes((n_elements,), 0, kind, k, block, False, 2**k)
        want_bits = 8 * sum(lengths.values()) / n_elements
        if float(cell["bits_per_param"]) != want_bits:
            fails.append(f"sweep {head[:4]}: bits_per_param {cell['bits_per_param']}, "
                         f"formula gives {want_bits!r}")
        numbers = [float(cell[c]) for c in ("mae", "mse", "max_abs_error", "snr_db")]
        util = float(cell["utilization"])
        if cell["lossless"] != "0" or not all(math.isfinite(v) and v > 0 for v in numbers) \
                or not 0 < util <= 1:
            fails.append(f"sweep {head[:4]}: implausible error columns {line}")
    return fails
