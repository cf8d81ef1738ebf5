"""The benchmark's workloads: seeded inputs and the kbitq commands run on them.

Inputs are drawn with `kbitq.synth` and written as containers by the
benchmark's own writer, so the program under test only ever sees files.
`README.md` says why each workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SINGLE = "single-int4"
CHAIN = "chain-mixed"
SWEEP = "sweep-grid"
NAMES = (SINGLE, CHAIN, SWEEP)

_STORED = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2")}

# chain-mixed plants a high-std hidden unit at every 97th up-projection column.
PLANT_STRIDE = 97
PLANT_GAIN = 8.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the commands run on them.

    File workloads run `quantize` then `dequantize`; the sweep workload runs
    one `sweep` over the grid given by `grid_*`.
    """

    name: str
    kind: str  # "file" or "sweep"
    dtype: str = "int"
    bits: int = 4
    block_size: int | None = 64
    centered: bool = False
    outlier_p: float = 0.0
    grid_dtypes: tuple[str, ...] = ()
    grid_bits: tuple[int, ...] = ()
    grid_blocks: tuple[int | None, ...] = ()
    smoke: bool = False

    def quantize_argv(self, src: Path, kbq: Path) -> list[str]:
        argv = ["quantize", str(src), str(kbq), "--bits", str(self.bits), "--dtype", self.dtype,
                "--block-size", _block_flag(self.block_size)]
        if self.centered:
            argv.append("--centered")
        if self.outlier_p:
            argv += ["--outlier-p", repr(self.outlier_p)]
        return argv

    @staticmethod
    def dequantize_argv(kbq: Path, decoded: Path) -> list[str]:
        return ["dequantize", str(kbq), str(decoded)]

    def sweep_argv(self, src: Path) -> list[str]:
        return ["sweep", str(src),
                "--bits", ",".join(map(str, self.grid_bits)),
                "--dtype", ",".join(self.grid_dtypes),
                "--block-size", ",".join(_block_flag(b) for b in self.grid_blocks)]

    def grid(self) -> list[tuple[str, int, int | None]]:
        """Sweep configs in the CLI's documented order: sorted kinds, bits, blocks."""
        blocks = sorted(self.grid_blocks, key=lambda b: (b is None, b))
        return [(d, k, b) for d in sorted(self.grid_dtypes) for k in sorted(self.grid_bits)
                for b in blocks]

    def make_inputs(self, seed: int) -> dict[str, np.ndarray]:
        """Input tensors in stored precision (float32 or float16), in container order."""
        from kbitq import synth

        if self.name == SINGLE:
            n = 256 if self.smoke else 4096
            return {"weight": synth.make_tensor("gaussian", (n, n), seed).astype(np.float32)}
        if self.name == SWEEP:
            n = 128 if self.smoke else 1024
            return {"weight": synth.make_tensor("student-t", (n, n), seed).astype(np.float32)}
        return _mlp_chain(seed, *((2, 32, 128) if self.smoke else (4, 768, 3072)))

    def planted_columns(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Up-projection columns planted with high std, keyed by the layer they feed."""
        if self.name != CHAIN:
            return {}
        names = list(inputs)
        return {names[i + 2]: np.arange(0, inputs[name].shape[1], PLANT_STRIDE)
                for i, name in enumerate(names) if name.endswith("c_fc.weight")}


def _block_flag(block: int | None) -> str:
    return "whole" if block is None else str(block)


def _mlp_chain(seed: int, n_blocks: int, d: int, hidden: int) -> dict[str, np.ndarray]:
    """GPT-2-style MLP blocks: layer norm, up-projection, down-projection, biases."""
    from kbitq import synth

    tensors: dict[str, np.ndarray] = {}
    draws = iter(range(seed * 64, seed * 64 + 5 * n_blocks))

    def gaussian(shape, scale, offset=0.0):
        return offset + scale * synth.make_tensor("gaussian", shape, next(draws))

    for i in range(n_blocks):
        up = gaussian((d, hidden), 0.02)
        up[:, ::PLANT_STRIDE] *= PLANT_GAIN
        tensors[f"h{i}.ln_2.weight"] = gaussian((d,), 0.05, offset=1.0)
        tensors[f"h{i}.mlp.c_fc.weight"] = up
        tensors[f"h{i}.mlp.c_fc.bias"] = gaussian((hidden,), 0.01)
        tensors[f"h{i}.mlp.c_proj.weight"] = gaussian((hidden, d), 0.02)
        tensors[f"h{i}.mlp.c_proj.bias"] = gaussian((d,), 0.01)
    return {name: arr.astype(np.float16) for name, arr in tensors.items()}


def get(name: str, smoke: bool = False) -> Workload:
    """The workload with this name, at full or smoke size."""
    if name == SINGLE:
        return Workload(SINGLE, "file", smoke=smoke)
    if name == CHAIN:
        return Workload(CHAIN, "file", dtype="float", bits=3, centered=True, outlier_p=0.02,
                        smoke=smoke)
    if name == SWEEP:
        return Workload(SWEEP, "sweep", grid_dtypes=("int", "float", "quantile"),
                        grid_bits=(3, 4, 8), grid_blocks=(64, None), smoke=smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def write_container(path: Path, tensors: dict[str, np.ndarray]) -> None:
    """Write the JSON-header container layout: u64 header length, header, data."""
    header, offset = {}, 0
    for name, arr in tensors.items():
        dtype = "F16" if arr.dtype == np.float16 else "F32"
        nbytes = arr.size * _STORED[dtype].itemsize
        header[name] = {"dtype": dtype, "shape": list(arr.shape),
                        "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(encoded)))
        fh.write(encoded)
        for name, arr in tensors.items():
            fh.write(np.ascontiguousarray(arr, dtype=_STORED[header[name]["dtype"]]).tobytes())


def read_container(path: Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a container written by kbitq or by `write_container`.

    Returns the arrays (read-only views in stored precision) and their dtypes.
    """
    blob = Path(path).read_bytes()
    (length,) = struct.unpack_from("<Q", blob)
    header = json.loads(blob[8:8 + length].decode("utf-8"))
    header.pop("__metadata__", None)
    data = memoryview(blob)[8 + length:]
    arrays, dtypes = {}, {}
    for name, entry in header.items():
        begin, end = entry["data_offsets"]
        arrays[name] = np.frombuffer(data[begin:end], dtype=_STORED[entry["dtype"]]).reshape(
            entry["shape"])
        dtypes[name] = entry["dtype"]
    return arrays, dtypes
