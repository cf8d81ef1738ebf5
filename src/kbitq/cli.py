"""Command-line interface.

stdout carries machine-readable payload only (JSON or CSV); diagnostics go
to stderr. Exit codes: 0 success, 1 runtime error, 2 usage error, 3 data
format error. Synthetic inputs are generated with a counter-based seeded
generator, so every command is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import codebooks, quantizer, store, synth  # the others on first use, per command
from .codebooks import CodebookKind
from .errors import (
    DataFormatError,
    EmptyInputError,
    InvalidFractionError,
    InvalidSpecError,
    KbitqError,
    PrecisionRangeError,
)

_USAGE_ERRORS = (PrecisionRangeError, InvalidSpecError, InvalidFractionError)


def _parse_shapes(text: str) -> list[tuple[int, ...]]:
    shapes = []
    for part in text.split(","):
        try:
            dims = tuple(int(d) for d in part.lower().split("x"))
        except ValueError:
            raise InvalidSpecError(f"bad shape {part!r}; use forms like 1024x1024 or 4096")
        if not dims or any(d < 1 for d in dims):
            raise InvalidSpecError(f"bad shape {part!r}; dimensions must be positive")
        shapes.append(dims)
    return shapes


def _parse_block_size(text: str):
    """A block size or None for 'whole'; argparse prints an ArgumentTypeError's reason."""
    if text.lower() in ("whole", "none"):
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad block size {text!r}; use an integer or 'whole'")
    if value < 1:
        raise argparse.ArgumentTypeError("block size must be >= 1")
    return value


def _load_input(paths, args) -> dict[str, np.ndarray]:
    """Tensors of the container in paths (read-only views of its F32/F16 data) or the generator."""
    if paths and args.synthetic is not None:
        raise InvalidSpecError("give either an input container or --synthetic, not both")
    if paths:
        return dict(store.read_container(paths[0]).items())
    if args.synthetic is not None:
        shapes = _parse_shapes(args.shape)
        return {
            f"synthetic_{i}": synth.make_tensor(args.synthetic, shape, args.seed + i)
            for i, shape in enumerate(shapes)
        }
    raise InvalidSpecError("no input: give a container path or --synthetic")


def _detect_outliers(tensors: dict[str, np.ndarray], p: float) -> dict[str, tuple | np.ndarray]:
    """Outlier input dims per tensor, chaining consecutive 2-D matrices.

    Tensors are treated, in container order, as maximal chains of linear
    layers wherever the output count of one matrix equals the input count
    of the next. The first layer of each chain gets no outlier treatment. A chain
    that holds an empty matrix is not ranked: quantizing that matrix fails, in
    container order.
    """
    dims = dict.fromkeys(tensors, ())
    if p <= 0:
        return dims
    from . import outliers

    chains: list[list[str]] = []
    for name, arr in tensors.items():
        if arr.ndim == 2 and chains and tensors[chains[-1][-1]].shape[1] == arr.shape[0]:
            chains[-1].append(name)
        elif arr.ndim == 2:
            chains.append([name])
    for chain in chains:
        if all(tensors[name].size for name in chain):
            detected = outliers.detect_outlier_dims([tensors[n] for n in chain], p)
            dims.update(zip(chain, detected.per_layer))
    return dims


def _quantize_all(tensors: dict[str, np.ndarray], config: quantizer.QuantConfig, sums=None):
    """Quantize every tensor, applying the outlier sidecar where detected; sums[name] scores it."""
    outlier_dims = _detect_outliers(tensors, config.outlier_fraction)
    result: dict[str, quantizer.QuantizedTensor] = {}
    for name, arr in tensors.items():
        dims = outlier_dims[name]
        scored = None if sums is None else sums[name]
        if len(dims):  # only 2-D tensors get outlier rows
            from . import outliers

            result[name] = outliers.quantize_mixed(arr, dims, None, config, scored)
        else:
            result[name] = quantizer.quantize_tensor(arr, None, config, scored)
    return result


def _config_from_args(args):
    return quantizer.QuantConfig(args.dtype, args.bits, args.block_size, args.centered,
                                 args.outlier_p, args.exponent_bits)


def _emit(payload: dict | str) -> None:
    """Write a payload to stdout, a dict as indented JSON and a str (CSV) as it is, and flush
    it. A stdout Python set to None (descriptor 1 closed at start-up) or a broken pipe raises
    OSError here, inside main; descriptor 1 then points at os.devnull, as Python's note on
    SIGPIPE advises, so that the interpreter's flush at exit meets no fault again."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    if sys.stdout is None:
        raise OSError("stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _tensor_summary(q, sums):
    from . import accounting

    used, n_codes = sums.code_use
    breakdown = accounting.bits_per_param(q.config, element_count=q.element_count)
    return {
        "shape": list(q.shape),
        "outlier_dims": int(q.outlier_dims.size),
        "bits_per_param": breakdown.as_dict(),
        "error": sums.report(used / n_codes).as_dict(),
    }


def cmd_quantize(args) -> int:
    from . import accounting

    *source, output = args.paths
    if len(source) > 1 or (not source and args.synthetic is None):
        raise InvalidSpecError("expected INPUT OUTPUT, or OUTPUT with --synthetic")
    tensors = _load_input(source, args)
    config = _config_from_args(args)
    sums = {name: accounting.ErrorSums() for name in tensors}
    quantized = _quantize_all(tensors, config, sums)
    store.write_kbq(quantized, output)
    _emit(
        {
            "output": str(output),
            "tensors": {name: _tensor_summary(q, sums[name]) for name, q in quantized.items()},
            "total_model_bits": accounting.total_model_bits(quantized.values()),
        }
    )
    return 0


def cmd_dequantize(args) -> int:
    quantized = store.read_kbq(args.input)
    # each tensor is decoded as its bytes are written, so one decoded tensor is held at a time
    store.stream_container(
        args.output, {name: ("F32", q.shape) for name, q in quantized.items()},
        (quantizer.dequantize_tensor(q, dtype=np.float32) for q in quantized.values()))
    _emit(
        {
            "output": str(args.output),
            "tensors": {name: list(q.shape) for name, q in quantized.items()},
        }
    )
    return 0


def cmd_inspect(args) -> int:
    from . import accounting

    quantized = store.read_kbq(args.kbq)
    against = store.read_container(args.against) if args.against else None
    tensors = {}
    for name, q in quantized.items():
        breakdown = accounting.bits_per_param(q.config, element_count=q.element_count)
        entry = {
            "shape": list(q.shape),
            "config": dataclasses.asdict(q.config),
            "n_quantized": q.n_quantized,
            "outlier_dims": int(q.outlier_dims.size),
            "bits_per_param": breakdown.as_dict(),
            "sections_bytes": accounting.payload_sections(q),
            "error": None,
        }
        if against is not None and name in against:
            sums = accounting.ErrorSums()
            sums.add_quantized(against.tensor(name), q)
            entry["error"] = _tensor_summary(q, sums)["error"]
        tensors[name] = entry
    _emit(
        {
            "file": str(args.kbq),
            "tensors": tensors,
            "total_model_bits": accounting.total_model_bits(quantized.values()),
        }
    )
    return 0


def cmd_codebook(args) -> int:
    kind = CodebookKind(args.kind)
    if kind is not CodebookKind.FLOAT and args.exponent_bits is not None:  # QuantConfig refuses
        quantizer.QuantConfig(kind, args.bits, exponent_bits=args.exponent_bits)
    if kind is CodebookKind.QUANTILE:
        if not args.sample:
            raise InvalidSpecError("--kind quantile requires --sample CONTAINER")
        container = store.read_container(args.sample)
        if not container.names():
            raise EmptyInputError(f"{args.sample}: the sample container holds no tensors")
        sample = np.concatenate([arr.ravel() for _, arr in container.items()], dtype=np.float64)
        sample.sort()  # in place: the one float64 copy, which build_quantile_codebook keeps
        book = codebooks.build_quantile_codebook(codebooks.QuantileSpec(args.bits, sample))
    else:
        book = quantizer._fixed_codebook(kind, args.bits, args.exponent_bits)
    _emit({"kind": book.kind.value, "bits": book.bits, "values": book.values.tolist()})
    return 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sweep(args) -> int:
    from . import accounting

    if len(args.paths) > 1:
        raise InvalidSpecError("sweep takes at most one input container")
    tensors = _load_input(args.paths, args)
    if not tensors:  # only a container can hold none
        raise EmptyInputError(f"{args.paths[0]}: the container holds no tensors")

    try:
        kinds = sorted({k for k in args.dtype.split(",") if k})
        bits = sorted({int(b) for b in args.bits.split(",") if b})
        blocks = sorted(
            {_parse_block_size(b) for b in args.block_size.split(",") if b},
            key=lambda b: (b is None, b),
        )
        centered = sorted({int(c) for c in args.centered.split(",") if c})
        fractions = sorted({float(p) for p in args.outlier_p.split(",") if p})
    except argparse.ArgumentTypeError as exc:  # a block size, already worded
        raise InvalidSpecError(str(exc))
    except ValueError as exc:
        raise InvalidSpecError(f"bad grid value: {exc}")
    if not all((kinds, bits, blocks, centered, fractions)):
        raise InvalidSpecError("sweep grid is empty")
    grid = [quantizer.QuantConfig(*cell)  # kind, bits, block size, centered, outlier fraction
            for cell in itertools.product(kinds, bits, blocks, centered, fractions)]
    # configs of one outlier fraction share its outlier rows; those sharing block size and
    # centering too share normalization and quantile sample; rows still come out in grid order
    groups: dict[tuple, list] = {}
    for config in grid:
        key = (config.block_size, config.centered, config.outlier_fraction)
        groups.setdefault(key, []).append(config)

    columns = (
        "kind,bits,exponent_bits,block_size,centered,outlier_p,bits_per_param,"
        "mae,mse,max_abs_error,snr_db,lossless,utilization"
    )
    rows = [columns]
    total_elements = sum(arr.size for arr in tensors.values())
    sums = {config: accounting.ErrorSums() for config in grid}
    util, model_bits = dict.fromkeys(grid, 0.0), dict.fromkeys(grid, 0)
    outlier_dims = {p: _detect_outliers(tensors, p) for p in fractions}
    for (_, _, p), group in groups.items():
        for name, arr in tensors.items():  # bits from section sizes, the codes dropped unpacked
            dims, outlier_rows, books = quantizer.encode_group(
                arr, outlier_dims[p][name], group, sums=[sums[config] for config in group])[1:4]
            for config, book in zip(group, books):
                used, n_codes = sums[config].code_use
                util[config] += arr.size * used / n_codes
                embedded = len(book) if config.kind is CodebookKind.QUANTILE else 0
                sizes = accounting.section_bytes(config, arr.size - outlier_rows.size, dims.size,
                                                 outlier_rows.size, embedded)
                model_bits[config] += 8 * sum(sizes.values())
    for config in grid:
        kind, k, block = config.kind, config.bits, config.block_size
        e_bits = codebooks.default_exponent_bits(k) if kind is CodebookKind.FLOAT else None
        r = sums[config].report(util[config] / total_elements)
        cells = (kind.value, k, e_bits, "whole" if block is None else block, config.centered,
                 config.outlier_fraction, model_bits[config] / total_elements,
                 r.mae, r.mse, r.max_abs_error, r.snr_db, r.lossless, r.codebook_utilization)
        rows.append(",".join(_csv_cell(v) for v in cells))
    _emit("\n".join(rows) + "\n")
    return 0


def cmd_scaling_fit(args) -> int:
    from . import scaling

    records = scaling.read_records_csv(args.records)
    budgets = []
    for item in filter(None, args.budgets.split(",")):
        try:
            budgets.append(float(item))
        except ValueError:
            budgets.append(math.nan)  # refused below, naming the item
        if not 0 < budgets[-1] < math.inf:
            raise InvalidSpecError(f"bad budget {item!r}; budgets are finite positive bit counts")
    _emit(scaling.scaling_report(records, budgets))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbitq",
        description="k-bit weight quantization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = list(quantizer._QUANTIZABLE_KINDS)  # in QuantConfig's order
    widths = range(codebooks.MIN_BITS, codebooks.MAX_BITS + 1)

    def add_config_flags(p, sweep=False):
        if sweep:
            p.add_argument("--bits", default="4", help="comma list of bit widths")
            p.add_argument("--dtype", default="int", help="comma list of codebook kinds")
            p.add_argument("--block-size", default="whole", help="comma list; integers or 'whole'")
            p.add_argument("--centered", default="0", help="comma list of 0/1")
            p.add_argument("--outlier-p", default="0", help="comma list of fractions")
        else:
            p.add_argument("--bits", type=int, choices=widths, default=4, metavar="K")
            p.add_argument("--dtype", choices=kinds, default="int")
            p.add_argument("--exponent-bits", type=int, default=None, metavar="E")
            p.add_argument("--block-size", type=_parse_block_size, default=None, metavar="B")
            p.add_argument("--centered", action="store_true")
            p.add_argument("--outlier-p", type=float, default=0.0, metavar="P")

    def add_synth_flags(p):
        p.add_argument("--synthetic", choices=synth.KINDS, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shape", default="1024x1024", help="e.g. 1024x1024 or 256x256,4096")

    p_quant = sub.add_parser("quantize", help="quantize a tensor container to a KBQ file")
    p_quant.add_argument("paths", nargs="+", metavar="[INPUT] OUTPUT")
    add_config_flags(p_quant)
    add_synth_flags(p_quant)
    p_quant.set_defaults(func=cmd_quantize)

    p_dequant = sub.add_parser("dequantize", help="decode a KBQ file to a tensor container")
    p_dequant.add_argument("input")
    p_dequant.add_argument("output")
    p_dequant.set_defaults(func=cmd_dequantize)

    p_inspect = sub.add_parser("inspect", help="report bit costs and errors for a KBQ file")
    p_inspect.add_argument("kbq")
    p_inspect.add_argument("--against", default=None, help="original container for error metrics")
    p_inspect.set_defaults(func=cmd_inspect)

    p_code = sub.add_parser("codebook", help="print a codebook's value set as JSON")
    p_code.add_argument("--kind", required=True, choices=kinds)
    p_code.add_argument("--bits", type=int, choices=widths, required=True, metavar="K")
    p_code.add_argument("--exponent-bits", type=int, default=None, metavar="E")
    p_code.add_argument("--sample", default=None, help="container supplying the quantile sample")
    p_code.set_defaults(func=cmd_codebook)

    p_sweep = sub.add_parser("sweep", help="grid of configs -> CSV of costs and errors")
    p_sweep.add_argument("paths", nargs="*", metavar="INPUT")
    add_config_flags(p_sweep, sweep=True)
    add_synth_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("scaling-fit", help="fit scaling curves from a records CSV")
    p_fit.add_argument("records")
    p_fit.add_argument("--budgets", default="", help="comma list of total-bit budgets")
    p_fit.set_defaults(func=cmd_scaling_fit)

    return parser


def main(argv=None) -> int:
    parser, prog = build_parser(), "kbitq"
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse wrote a usage error to stderr, or help to stdout
            if sys.stdout is not None:
                _emit("")  # flushes the help
            return exc.code if isinstance(exc.code, int) else 2
        prog = f"kbitq {args.command}"
        return args.func(args)
    except (KbitqError, OSError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        if isinstance(exc, _USAGE_ERRORS):
            return 2
        return 3 if isinstance(exc, DataFormatError) else 1

