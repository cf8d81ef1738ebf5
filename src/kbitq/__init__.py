"""kbitq: blockwise k-bit weight quantization toolkit.

Codebook data types (int, minifloat, dynamic exponent, quantile), blockwise
absmax quantization with optional centering, outlier-aware mixed precision,
bit-cost accounting, packed tensor serialization, and scaling-curve
analysis over (total model bits, metric) observations.
"""

import importlib

# Each export by its home module, imported on first use (PEP 562), so a command loads only
# the modules it calls: `kbitq dequantize` never imports accounting, outliers or scaling.
_EXPORTS = {
    "accounting": ("BitsBreakdown", "ErrorReport", "bits_per_param", "error_metrics",
                   "payload_sections", "pearson_correlation", "total_model_bits"),
    "codebooks": ("Codebook", "CodebookKind", "DynamicSpec", "FloatSpec", "QuantileSpec",
                  "build_dynamic_codebook", "build_float_codebook", "build_int_codebook",
                  "build_quantile_codebook", "build_uint_codebook", "default_exponent_bits",
                  "estimate_quantiles", "heuristic_exponent_bits"),
    "outliers": ("LayerChain", "OutlierSet", "detect_outlier_dims", "quantize_mixed"),
    "quantizer": ("QuantConfig", "QuantizedTensor", "codebook_for", "dequantize_tensor",
                  "lookup_index", "lookup_indices", "pack_indices", "quantize_tensor",
                  "reconstruct_codebook", "unpack_indices"),
    "scaling": ("MetricKind", "ScalingCurve", "ScalingRecord", "fit_curves",
                "parallelism_offsets", "pareto_optimal_precision", "read_records_csv",
                "scaling_report"),
    "store": ("TensorContainer", "read_container", "read_kbq", "write_container", "write_kbq"),
    "synth": ("make_tensor",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
