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
import sys

import numpy as np

from . import accounting, codebooks, outliers, quantizer, scaling, store, synth
from .codebooks import CodebookKind
from .errors import (
    DataFormatError,
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
    if text.lower() in ("whole", "none"):
        return None
    try:
        value = int(text)
    except ValueError:
        raise InvalidSpecError(f"bad block size {text!r}; use an integer or 'whole'")
    if value < 1:
        raise InvalidSpecError("block size must be >= 1")
    return value


def _load_input(args) -> dict[str, np.ndarray]:
    """Tensors from a container file or the synthetic generator."""
    if args.input is not None and args.synthetic is not None:
        raise InvalidSpecError("give either an input container or --synthetic, not both")
    if args.input is not None:
        container = store.read_container(args.input)
        return {name: arr.astype(np.float64) for name, arr in container.items()}
    if args.synthetic is not None:
        shapes = _parse_shapes(args.shape)
        return {
            f"synthetic_{i}": synth.make_tensor(args.synthetic, shape, args.seed + i)
            for i, shape in enumerate(shapes)
        }
    raise InvalidSpecError("no input: give a container path or --synthetic")


def _detect_outliers(tensors: dict[str, np.ndarray], p: float) -> dict[str, np.ndarray]:
    """Outlier input dims per tensor, chaining consecutive 2-D matrices.

    Tensors are treated, in container order, as maximal chains of linear
    layers wherever the output count of one matrix equals the input count
    of the next. The first layer of each chain gets no outlier treatment.
    """
    dims = {name: np.zeros(0, dtype=np.int32) for name in tensors}
    if p <= 0:
        return dims
    names = [n for n, a in tensors.items() if a.ndim == 2]
    i = 0
    while i < len(names):
        chain = [names[i]]
        while (
            i + len(chain) < len(names)
            and tensors[chain[-1]].shape[1] == tensors[names[i + len(chain)]].shape[0]
        ):
            chain.append(names[i + len(chain)])
        detected = outliers.detect_outlier_dims([tensors[n] for n in chain], p)
        for name, idx in zip(chain, detected.per_layer):
            dims[name] = idx
        i += len(chain)
    return dims


def _quantize_all(tensors: dict[str, np.ndarray], config: quantizer.QuantConfig):
    """Quantize every tensor, applying the outlier sidecar where detected."""
    outlier_dims = _detect_outliers(tensors, config.outlier_fraction)
    result: dict[str, quantizer.QuantizedTensor] = {}
    for name, arr in tensors.items():
        codebook = quantizer.codebook_for(arr, config)
        dims = outlier_dims[name]
        if dims.size and arr.ndim == 2:
            result[name] = outliers.quantize_mixed(arr, dims, codebook, config)
        else:
            result[name] = quantizer.quantize_tensor(arr, codebook, config)
    return result


def _config_from_args(args):
    return quantizer.QuantConfig(
        kind=CodebookKind(args.dtype),
        bits=args.bits,
        block_size=args.block_size,
        centered=args.centered,
        outlier_fraction=args.outlier_p,
        exponent_bits=args.exponent_bits,
    )


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _tensor_summary(arr, q):
    sums = accounting.ErrorSums()
    used, n_codes = sums.add_quantized(arr, q)
    breakdown = accounting.bits_per_param(q.config, element_count=q.element_count)
    return {
        "shape": list(q.shape),
        "outlier_dims": int(q.outlier_dims.size),
        "bits_per_param": breakdown.as_dict(),
        "error": sums.report(used / n_codes).as_dict(),
    }


def cmd_quantize(args) -> int:
    if len(args.paths) == 2:
        args.input, output = args.paths
    elif len(args.paths) == 1 and args.synthetic is not None:
        args.input, output = None, args.paths[0]
    else:
        raise InvalidSpecError("expected INPUT OUTPUT, or OUTPUT with --synthetic")
    tensors = _load_input(args)
    config = _config_from_args(args)
    quantized = _quantize_all(tensors, config)
    store.write_kbq(quantized, output)
    _emit(
        {
            "output": str(output),
            "tensors": {name: _tensor_summary(tensors[name], q) for name, q in quantized.items()},
            "total_model_bits": accounting.total_model_bits(quantized.values()),
        }
    )
    return 0


def cmd_dequantize(args) -> int:
    quantized = store.read_kbq(args.input)
    # cast each decode as it is made, so no two float64 tensors are held at once
    decoded = {
        name: quantizer.dequantize_tensor(q).astype(np.float32) for name, q in quantized.items()
    }
    store.write_container(args.output, decoded)
    _emit(
        {
            "output": str(args.output),
            "tensors": {name: list(v.shape) for name, v in decoded.items()},
        }
    )
    return 0


def cmd_inspect(args) -> int:
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
            entry["error"] = _tensor_summary(against.tensor(name), q)["error"]
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
    if kind is CodebookKind.QUANTILE:
        if not args.sample:
            raise InvalidSpecError("--kind quantile requires --sample CONTAINER")
        container = store.read_container(args.sample)
        sample = np.concatenate([arr.ravel() for _, arr in container.items()])
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
    if args.paths:
        if len(args.paths) > 1:
            raise InvalidSpecError("sweep takes at most one input container")
        args.input = args.paths[0]
    else:
        args.input = None
    tensors = _load_input(args)

    try:
        kinds = sorted({CodebookKind(k).value for k in args.dtype.split(",") if k})
        bits = sorted({int(b) for b in args.bits.split(",") if b})
        blocks = sorted(
            {_parse_block_size(b) for b in args.block_size.split(",") if b},
            key=lambda b: (b is None, b),
        )
        centered = sorted({bool(int(c)) for c in args.centered.split(",") if c})
        fractions = sorted({float(p) for p in args.outlier_p.split(",") if p})
    except InvalidSpecError:  # a block size, already worded
        raise
    except ValueError as exc:
        raise InvalidSpecError(f"bad grid value: {exc}")
    grid = list(itertools.product(kinds, bits, blocks, centered, fractions))
    if not all((kinds, bits, blocks, centered, fractions)):
        raise InvalidSpecError("sweep grid is empty")

    columns = (
        "kind,bits,exponent_bits,block_size,centered,outlier_p,bits_per_param,"
        "mae,mse,max_abs_error,snr_db,lossless,utilization"
    )
    rows = [columns]
    total_elements = sum(arr.size for arr in tensors.values())
    for kind, k, block, center, p in grid:
        config = quantizer.QuantConfig(
            kind=CodebookKind(kind), bits=k, block_size=block, centered=center, outlier_fraction=p
        )
        quantized = _quantize_all(tensors, config)
        sums = accounting.ErrorSums()
        weighted_util = 0.0
        for name, q in quantized.items():
            used, n_codes = sums.add_quantized(tensors[name], q)
            weighted_util += q.element_count * used / n_codes
        report = sums.report(weighted_util / total_elements)
        e_bits = (
            codebooks.default_exponent_bits(k) if CodebookKind(kind) is CodebookKind.FLOAT else None
        )
        rows.append(
            ",".join(
                _csv_cell(v)
                for v in (
                    kind,
                    k,
                    e_bits,
                    "whole" if block is None else block,
                    center,
                    p,
                    accounting.total_model_bits(quantized.values()) / total_elements,
                    report.mae,
                    report.mse,
                    report.max_abs_error,
                    report.snr_db,
                    report.lossless,
                    report.codebook_utilization,
                )
            )
        )
    sys.stdout.write("\n".join(rows) + "\n")
    return 0


def cmd_scaling_fit(args) -> int:
    records = scaling.read_records_csv(args.records)
    budgets = [float(b) for b in args.budgets.split(",")] if args.budgets else []
    _emit(scaling.scaling_report(records, budgets))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbitq",
        description="k-bit weight quantization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, sweep=False):
        if sweep:
            p.add_argument("--bits", default="4", help="comma list of bit widths")
            p.add_argument("--dtype", default="int", help="comma list of codebook kinds")
            p.add_argument("--block-size", default="whole", help="comma list; integers or 'whole'")
            p.add_argument("--centered", default="0", help="comma list of 0/1")
            p.add_argument("--outlier-p", default="0", help="comma list of fractions")
        else:
            p.add_argument("--bits", type=int, choices=range(2, 9), default=4, metavar="K")
            p.add_argument(
                "--dtype",
                choices=[k.value for k in CodebookKind if k is not CodebookKind.UINT],
                default="int",
            )
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
    p_quant.set_defaults(func=cmd_quantize, input=None)

    p_dequant = sub.add_parser("dequantize", help="decode a KBQ file to a tensor container")
    p_dequant.add_argument("input")
    p_dequant.add_argument("output")
    p_dequant.set_defaults(func=cmd_dequantize)

    p_inspect = sub.add_parser("inspect", help="report bit costs and errors for a KBQ file")
    p_inspect.add_argument("kbq")
    p_inspect.add_argument("--against", default=None, help="original container for error metrics")
    p_inspect.set_defaults(func=cmd_inspect)

    p_code = sub.add_parser("codebook", help="print a codebook's value set as JSON")
    p_code.add_argument("--kind", required=True, choices=["int", "float", "dynamic", "quantile"])
    p_code.add_argument("--bits", type=int, choices=range(2, 9), required=True, metavar="K")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (KbitqError, OSError) as exc:
        print(f"kbitq {args.command}: {exc}", file=sys.stderr)
        if isinstance(exc, _USAGE_ERRORS):
            return 2
        return 3 if isinstance(exc, DataFormatError) else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
