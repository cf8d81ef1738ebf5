"""Outlier-aware mixed precision for chains of linear layers.

Hidden units whose weight columns have unusually large standard deviation
produce outlier features downstream. Detection ranks the per-unit weight
stds of each layer and marks the top fraction; the matching input rows of
the next layer are then stored at 16 bits while everything else is
quantized to k bits. Detection is input-independent, so the memory
footprint is constant across tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quantizer
from .codebooks import Codebook
from .errors import DimensionError, EmptyInputError, InvalidFractionError, InvalidValueError
from .quantizer import QuantConfig, QuantizedTensor, quantize_group


class LayerChain:
    """An ordered sequence of 2-D weight matrices W_i of shape (h_i, o_i).

    Consecutive layers must chain: the o_i output units of W_i feed the
    h_{i+1} input dimensions of W_{i+1}. No layer is empty.
    """

    def __init__(self, weights) -> None:
        mats = [np.asarray(w) for w in weights]
        if not mats:
            raise EmptyInputError("layer chain must contain at least one matrix")
        for i, w in enumerate(mats):
            if w.ndim != 2:
                raise DimensionError(f"layer {i} is not 2-D (shape {w.shape})")
            if w.size == 0:  # its std would divide by zero rows, or rank no units
                raise EmptyInputError(f"layer {i} is empty (shape {w.shape})")
        for i in range(len(mats) - 1):
            if mats[i].shape[1] != mats[i + 1].shape[0]:
                raise DimensionError(
                    f"layer {i} has {mats[i].shape[1]} outputs but layer {i + 1} "
                    f"expects {mats[i + 1].shape[0]} inputs"
                )
        self.weights = tuple(mats)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


@dataclass(frozen=True)
class OutlierSet:
    """Per-layer sorted input-dimension indices held at 16-bit."""

    per_layer: tuple[np.ndarray, ...]
    fraction: float

    def __getitem__(self, i: int) -> np.ndarray:
        return self.per_layer[i]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _column_stds(w: np.ndarray) -> np.ndarray:
    """np.asarray(w, np.float64).std(axis=0) of a 2-D layer, bit for bit, in column slabs.

    Slabs of about _SLAB_ELEMENTS elements run on the slab pool, each cast into the thread's
    workspace and taken through numpy's _var steps there, in place. numpy sums a column row
    after row, as over the whole layer, unless a slab holds it alone (then pairwise), so no
    slab of a wider layer holds one column. numpy reduces other layouts in other orders, so
    a layer whose rows are not C-contiguous is cast whole. A column holding a NaN or an
    infinity has a NaN std, with no warning, and raises InvalidValueError; one whose squares
    pass the float64 range has numpy's inf std, also with no warning, and ranks first.
    """
    h, o = w.shape
    # an even split into slabs of at most max(4, ...) columns gives each slab 2 or more
    count = -(-o // max(4, quantizer._SLAB_ELEMENTS // h))
    bounds = [o * i // count for i in range(count + 1)]

    def std(a: int, b: int) -> None:  # writes only stds[a:b]
        x, out = quantizer._scratch("x", h * (b - a)).reshape(h, b - a), stds[a:b]
        np.copyto(x, w[:, a:b])
        mean = out.reshape(1, -1)  # out holds the column means until the sums replace them
        with np.errstate(invalid="ignore", over="ignore"):  # each pool thread keeps its own
            np.divide(np.add.reduce(x, axis=0, keepdims=True, out=mean), np.intp(h), out=mean)
            np.square(np.subtract(x, mean, out=x), out=x)
            np.sqrt(np.divide(np.add.reduce(x, axis=0, out=out), np.intp(h), out=out), out=out)

    if w.flags.c_contiguous:
        stds = np.empty(o)
        list(quantizer._pooled(std, zip(bounds[:-1], bounds[1:])))
    else:
        with np.errstate(invalid="ignore", over="ignore"):
            stds = np.asarray(w, dtype=np.float64).std(axis=0)
    if np.isnan(stds).any():
        raise InvalidValueError("tensor contains non-finite values")
    return stds


def detect_outlier_dims(chain: LayerChain, p: float) -> OutlierSet:
    """Mark the top-p fraction of hidden units of each layer by weight std.

    Layer i's units are ranked by the population std of their incoming
    weights (columns of W_i); the winners become the 16-bit input
    dimensions of layer i+1. The first layer receives no treatment. Ties
    are broken toward the lower index and the count is round-half-up of
    p * o_i, so the result is deterministic.
    """
    if isinstance(chain, (list, tuple)):
        chain = LayerChain(chain)
    if not 0.0 <= p < 1.0:
        raise InvalidFractionError(f"outlier fraction must be in [0, 1), got {p}")
    per_layer = [np.zeros(0, dtype=np.int32)]
    for w in chain.weights[:-1] if len(chain) > 1 else []:
        stds = _column_stds(w)
        count = _round_half_up(p * stds.size)
        # stable sort on descending std keeps the lower index on ties
        order = np.argsort(-stds, kind="stable")
        per_layer.append(np.sort(order[:count]).astype(np.int32))
    return OutlierSet(per_layer=tuple(per_layer), fraction=float(p))


def quantize_mixed(W, J, codebook: Codebook | None, config: QuantConfig,
                   sums=None) -> QuantizedTensor:
    """Quantize a matrix with the input rows in J kept verbatim at 16-bit.

    Outlier rows are excluded from block statistics entirely, so a single
    large row cannot inflate any block constant. With J empty this reduces
    to plain quantization. codebook None is the config's own, as in
    quantize_tensor. With sums (an ErrorSums) the matrix is scored as it is
    encoded (see encode_group).
    """
    arr = np.asarray(W)
    if arr.ndim != 2:
        raise DimensionError(f"mixed-precision quantization needs a 2-D matrix, got {arr.shape}")
    return next(quantize_group(arr, J, [config], codebook, [sums]))
