"""Construction of k-bit codebook data types.

A codebook is the sorted set of normalized values a k-bit code can decode
to. All constructors return values inside [-1, 1] with the largest
magnitude exactly 1, so codebooks built from different sources are directly
comparable and can be applied to any absmax-normalized input.

Four families are provided: symmetric integer grids, sign/exponent/mantissa
minifloats, dynamic-exponent codes (sign bit, a run of zeros selecting a
base-10 exponent, an indicator bit, then a linear fraction), and
data-driven quantile codebooks. An unsigned integer grid is included for
the index-to-value mapping sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidSpecError,
    InvalidValueError,
    OutOfRangeError,
    PrecisionRangeError,
)

MIN_BITS = 2
MAX_BITS = 8

# Exponent-bit assignment for minifloats at each total width. The
# alternative heuristic uses at least half the bits, rounded up.
_DEFAULT_EXPONENT_BITS = {3: 2, 4: 2, 5: 2, 6: 3, 7: 3, 8: 3}


class CodebookKind(str, Enum):
    INT = "int"
    UINT = "uint"
    FLOAT = "float"
    DYNAMIC = "dynamic"
    QUANTILE = "quantile"


# Kinds that are required to contain an exact zero code.
_ZERO_KINDS = {
    CodebookKind.INT,
    CodebookKind.UINT,
    CodebookKind.DYNAMIC,
    CodebookKind.QUANTILE,
}


def _is_integer(value) -> bool:  # a Python or numpy integer, not a bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_bits(k: int, low: int = MIN_BITS, high: int = MAX_BITS) -> int:
    if not _is_integer(k):
        raise InvalidSpecError(f"bit width must be an integer, got {k!r}")
    if not low <= k <= high:
        raise PrecisionRangeError(f"bit width must be in [{low}, {high}], got {k}")
    return int(k)


def sorted_unique(values) -> np.ndarray:
    """np.unique(values) of NaN-free values: a flat, ascending copy without repeats.

    It sorts as np.unique sorts floats, so of equal values (-0.0 and +0.0) it keeps the same
    one, and unlike np.unique (numpy 2.x) it never imports numpy.ma, a fixed cost per process.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


@dataclass(frozen=True)
class Codebook:
    """A k-bit data type: the ordered set of decodable values.

    values are strictly ascending float64 in [-1, 1] with max |value| == 1;
    the array is frozen so codebooks can be shared freely.
    """

    kind: CodebookKind
    bits: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(vals)):  # before any arithmetic, which a NaN would signal
            raise InvalidSpecError("codebook values must be finite")
        vals = vals + 0.0
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        _check_bits(self.bits)
        if vals.ndim != 1 or not 2 <= vals.size <= 2**self.bits:
            raise InvalidSpecError(
                f"codebook needs 2..{2**self.bits} values, got shape {vals.shape}"
            )
        if not np.all(np.diff(vals) > 0):
            raise InvalidSpecError("codebook values must be strictly ascending")
        if np.max(np.abs(vals)) != 1.0:
            raise InvalidSpecError("codebook must be normalized to max |value| == 1")
        if self.kind in _ZERO_KINDS and np.count_nonzero(vals == 0.0) != 1:
            raise InvalidSpecError(f"{self.kind.value} codebook must contain 0 exactly once")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def zero_index(self) -> int:
        """Index of the code nearest to zero (exact zero where present)."""
        return int(np.argmin(np.abs(self.values)))

    @property
    def max_gap(self) -> float:
        """Largest spacing between adjacent codes."""
        return float(np.max(np.diff(self.values)))

    @property
    def coverage_radius(self) -> float:
        """Worst-case distance from any point of [-1, 1] to its nearest code.

        Equals max_gap / 2 for codebooks that reach -1 and +1; asymmetric
        codebooks (quantile) additionally pay the shortfall on the side
        that stops before the boundary.
        """
        return float(
            max(self.max_gap / 2, 1.0 - self.values[-1], self.values[0] + 1.0)
        )

    @cached_property
    def thresholds(self) -> np.ndarray:
        """Exact decision boundaries of nearest-code lookup, one per adjacent pair.

        thresholds[j] is the largest float64 x for which the tie rule
        (x - v[j]) <= (v[j+1] - x) still picks code j over code j+1. Both
        differences are correctly rounded, so the rule is monotone in x and
        bisection over the ordered integer keys of float64 values finds the
        boundary exactly. Each pair's bracket starts 4 keys either side of its
        midpoint, a few rounds wide; a pair whose near ends do not bracket the
        boundary (rule true at the low end, false at the high end) keeps its whole
        [v[j], v[j+1]]. The boundary is unique, so either bracket finds it.
        """
        a, b = self.values[:-1], self.values[1:]

        def left(keys):  # the tie rule at the floats of ordered keys
            x = _ordered_key(keys).view(np.float64)
            return (x - a) <= (b - x)

        lo, hi = _ordered_key(a.view(np.int64)), _ordered_key(b.view(np.int64))
        mid = _ordered_key((a + (b - a) / 2).view(np.int64))
        near_lo, near_hi = np.maximum(mid - 4, lo), np.minimum(mid + 4, hi)
        near = left(near_lo) & ~left(near_hi)
        lo, hi = np.where(near, near_lo, lo), np.where(near, near_hi, hi)
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            keep = left(mid)
            lo, hi = np.where(keep, mid, lo), np.where(keep, hi, mid)
        t = _ordered_key(lo).view(np.float64)
        t.flags.writeable = False
        return t

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Bucket table of nearest-code lookup: (start, padded, probes).

        The cell count n of cell_index is the first power of two to 2^15 at which the thresholds'
        cells strictly increase, else 2^16; start[c] (uint8) counts thresholds in cells before c;
        padded is the thresholds then +inf; probes = ceil(log2(m + 1)), m the most in a cell.
        """
        t = self.thresholds
        n = next((1 << e for e in range(1, 16) if np.all(np.diff(cell_index(t, 1 << e)) > 0)),
                 1 << 16)
        start = np.searchsorted(cell_index(t, n), np.arange(n + 1))
        probes = int(np.max(np.diff(start, append=t.size))).bit_length()
        return start.astype(np.uint8), np.append(t, np.full((1 << probes) - 1, np.inf)), probes

    @cached_property
    def first_bounds(self) -> np.ndarray:
        """Each cell's first probe of nearest-code lookup: padded[start + 2^(p-1) - 1] (cells)."""
        start, padded, probes = self.cells
        return padded[start.astype(np.intp) + (1 << (probes - 1)) - 1]


def cell_index(x: np.ndarray, n: int, out=None, scratch=None) -> np.ndarray:
    """Cell of x among n equal cells of [-1, 1] (x >= 1: cell n); monotone, clipped first.
    out (intp) and scratch (float64), if given, take the cells and the scaled x.

    The cell is clip(x) * (n/2) + n/2, truncated: n/2 is a power of two, so the product is
    exact and the sum rounds as (clip(x) + 1) * (n/2) does.
    """
    scaled = np.clip(x, -1.0, 1.0, out=scratch)
    scaled *= n / 2
    out = np.empty(scaled.shape, dtype=np.intp) if out is None else out
    return np.add(scaled, n / 2, out=out, casting="unsafe")


def _ordered_key(bits: np.ndarray) -> np.ndarray:
    """Map float64 bit patterns to int64 keys in the same order, and back.

    Negative floats have their magnitude bits inverted, so -0.0 sits just
    below +0.0; the map is its own inverse.
    """
    return bits ^ ((bits >> 63) & np.int64(0x7FFF_FFFF_FFFF_FFFF))


@dataclass(frozen=True)
class FloatSpec:
    """Minifloat layout: 1 sign bit, E exponent bits, the rest mantissa.

    The bias is arbitrary: it scales every value by the same power of two,
    which absmax normalization removes. Defaults to 2^(E-1).
    """

    total_bits: int
    exponent_bits: int
    bias: int | None = None

    def __post_init__(self) -> None:
        if self.exponent_bits < 1 or self.exponent_bits >= self.total_bits:
            raise InvalidSpecError(
                f"need 1 <= exponent_bits < total_bits, got E={self.exponent_bits} "
                f"for {self.total_bits} bits"
            )

    @property
    def mantissa_bits(self) -> int:
        return self.total_bits - 1 - self.exponent_bits

    @property
    def effective_bias(self) -> int:
        return 2 ** (self.exponent_bits - 1) if self.bias is None else self.bias


@dataclass(frozen=True)
class DynamicSpec:
    """Dynamic-exponent layout with a configurable fraction interval."""

    total_bits: int
    fraction_lo: float = 0.1
    fraction_hi: float = 0.9

    def __post_init__(self) -> None:
        if not self.fraction_lo < self.fraction_hi:
            raise InvalidSpecError("fraction interval must satisfy lo < hi")


@dataclass(frozen=True)
class QuantileSpec:
    """Quantile codebook spec: bit width plus the sample that defines Q_X."""

    total_bits: int
    sample: np.ndarray = field(repr=False)


def build_int_codebook(k: int) -> Codebook:
    """Symmetric uniform grid: j / (2^(k-1) - 1) for j in [-(2^(k-1)-1), 2^(k-1)-1]."""
    k = _check_bits(k)
    m = 2 ** (k - 1) - 1
    values = np.arange(-m, m + 1, dtype=np.float64) / m
    return Codebook(CodebookKind.INT, k, values)


def build_uint_codebook(k: int) -> Codebook:
    """Unsigned uniform grid: i / (2^k - 1) for i in [0, 2^k - 1]."""
    k = _check_bits(k)
    values = np.arange(2**k, dtype=np.float64) / (2**k - 1)
    return Codebook(CodebookKind.UINT, k, values)


def default_exponent_bits(k: int) -> int:
    """Best-performing exponent width: 2 bits for 3-5 bit types, 3 for 6-8."""
    k = _check_bits(k, low=3)
    return _DEFAULT_EXPONENT_BITS[k]


def heuristic_exponent_bits(k: int) -> int:
    """Alternative assignment: at least half the bits, rounded up."""
    k = _check_bits(k, low=3)
    return (k + 1) // 2


def build_float_codebook(spec: FloatSpec) -> Codebook:
    """Enumerate every (sign, exponent, mantissa) pattern of a minifloat.

    Zero exponent encodes subnormals; every other exponent encodes
    1.mantissa times 2^(e-bias). No patterns are reserved, so all 2^k codes
    decode to finite values and only +-0 collapse. The result is divided by
    its largest magnitude, which cancels the bias entirely.
    """
    k = _check_bits(spec.total_bits, low=3)
    e_bits, m_bits, bias = spec.exponent_bits, spec.mantissa_bits, spec.effective_bias
    mantissas = np.arange(2**m_bits, dtype=np.float64) / 2.0**m_bits
    exponents = np.arange(2**e_bits)
    scales = np.where(exponents == 0, 2.0 ** (1 - bias), 2.0 ** (exponents - bias))
    leading = np.where(exponents == 0, 0.0, 1.0)
    magnitudes = (scales[:, None] * (leading[:, None] + mantissas[None, :])).ravel()
    values = sorted_unique(np.concatenate([magnitudes, -magnitudes]))
    values = values / np.max(np.abs(values))
    return Codebook(CodebookKind.FLOAT, k, values)


def build_dynamic_codebook(spec: DynamicSpec) -> Codebook:
    """Enumerate dynamic-exponent bit patterns.

    After the sign bit, z zero bits followed by an indicator one-bit select
    the exponent 10^-z; the remaining f = k - 2 - z bits index a uniform
    grid over [fraction_lo, fraction_hi] (the indicator alone, f = 0,
    denotes a fraction of 1). The all-zero pattern decodes to 0. Values are
    computed in exact rational arithmetic so duplicates arising from
    different patterns (e.g. 10^-2 * 1 vs 10^-1 * 0.1) collapse reliably,
    then the set is absmax-normalized.
    """
    from fractions import Fraction  # on first use: no other command needs it

    k = _check_bits(spec.total_bits)
    lo = Fraction(str(float(spec.fraction_lo)))
    hi = Fraction(str(float(spec.fraction_hi)))
    magnitudes = set()
    for z in range(k - 1):
        f = k - 2 - z
        exponent = Fraction(1, 10**z)
        if f == 0:
            fracs = [Fraction(1)]
        else:
            fracs = [lo + (hi - lo) * Fraction(j, 2**f - 1) for j in range(2**f)]
        magnitudes.update(exponent * frac for frac in fracs)
    peak = max(magnitudes)
    positives = sorted(v / peak for v in magnitudes)
    values = [-v for v in reversed(positives)] + [Fraction(0)] + positives
    return Codebook(CodebookKind.DYNAMIC, k, np.array([float(v) for v in values]))


def _sorted_quantiles(ordered: np.ndarray, probs, scale=1.0):
    """np.quantile(ordered / scale, probs) of an ascending sample, by numpy's linear rule.

    Virtual index (n - 1) p; the order statistics either side of it (the last twice, at
    weight index + 1, from n - 1 on); _lerp's b - (b - a)(1 - t) for t >= 0.5. Dividing
    the picked values by a scale > 0 equals picking from the divided sample (monotone).
    """
    virtual = (ordered.size - 1) * np.asarray(probs, dtype=np.float64)
    lo = np.floor(virtual)
    lo[virtual >= ordered.size - 1] = -1
    hi = np.where(lo == -1, -1, lo + 1).astype(np.intp)
    t = virtual - lo
    a, b = ordered[lo.astype(np.intp)] / scale, ordered[hi] / scale
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def estimate_quantiles(data, p):
    """Empirical inverse CDF via sorted order statistics.

    Linearly interpolates between adjacent order statistics, so p=0 and p=1
    return the sample extremes. p may be a scalar or an array of
    probabilities in [0, 1].
    """
    arr = np.asarray(data, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInputError("cannot estimate quantiles of an empty sample")
    if not np.all(np.isfinite(arr)):
        raise InvalidValueError("sample contains non-finite values")
    probs = np.asarray(p, dtype=np.float64)
    if np.any((probs < 0) | (probs > 1)):
        raise OutOfRangeError("quantile probabilities must lie in [0, 1]")
    result = _sorted_quantiles(np.sort(arr), probs.reshape(-1)).reshape(probs.shape)
    return float(result) if np.isscalar(p) or probs.ndim == 0 else result


def build_quantile_codebook(spec: QuantileSpec) -> Codebook:
    """Equal-mass codebook from the empirical quantile function of a sample.

    The sample is absmax-normalized, its range is split into 2^k + 1
    quantile probabilities, and each code is the midpoint of two adjacent
    quantiles. A zero code is then added; if that grows the set past 2^k
    entries, the nonzero value closest to zero (statistical noise away from
    an exact zero for symmetric data) is merged into it. The final set is
    absmax-normalized like every other codebook.
    """
    k = _check_bits(spec.total_bits)
    sample = np.asarray(spec.sample, dtype=np.float64).ravel()
    if sample.size == 0:
        raise EmptyInputError("quantile codebook needs a non-empty sample")
    if not np.all(np.isfinite(sample)):
        raise InvalidValueError("quantile sample contains non-finite values")
    if np.any(sample[1:] < sample[:-1]):  # one sort can serve every width
        sample = np.sort(sample)
    peak = max(-sample[0], sample[-1])
    if peak == 0:
        raise InvalidValueError("quantile sample is identically zero")
    n_codes = 2**k
    probs = np.arange(n_codes + 1, dtype=np.float64) / (n_codes + 1)
    quantiles = _sorted_quantiles(sample, probs, peak)
    mids = (quantiles[:-1] + quantiles[1:]) / 2.0
    values = sorted_unique(np.concatenate([mids, [0.0]]))
    if values.size > n_codes:
        nonzero = values[values != 0.0]
        drop = nonzero[np.argmin(np.abs(nonzero))]
        values = values[values != drop]
    values = values / np.max(np.abs(values))
    return Codebook(CodebookKind.QUANTILE, k, values)
