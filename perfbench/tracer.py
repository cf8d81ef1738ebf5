"""In-process spans around kbitq's public functions, for the traced run.

`Tracer.installed()` replaces each function in `TARGETS` at every kbitq
module attribute that holds it (so `outliers.pack_indices`, imported from
`quantizer`, is traced too) and restores the originals on exit. A span
records name, start, end, parent span and run id; spans stay in memory
until the benchmark writes them out. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

TARGETS = {
    "quantizer": ("lookup_indices", "pack_indices", "unpack_indices", "quantize_tensor",
                  "dequantize_tensor", "codebook_for"),
    "codebooks": ("build_quantile_codebook",),
    "outliers": ("detect_outlier_dims", "quantize_mixed"),
    "accounting": ("error_metrics", "total_model_bits"),
    "store": ("read_container", "write_container", "write_kbq", "read_kbq"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run}


def _payload_bytes(tensors) -> int:
    """Bytes of the sections a KBQ file carries, from the tensors handed to write_kbq."""
    total = 0
    for q in tensors.values():
        total += len(q.packed_indices) + 2 * q.absmax.size + 4 * q.outlier_dims.size
        total += 2 * q.outlier_rows.size + (2 * q.means.size if q.means is not None else 0)
        total += 8 * q.codebook_values.size if q.codebook_values is not None else 0
    return total


class Tracer:
    """Collects spans and counters for every command run while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run)
            self._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, args, kwargs, result) -> None:
        """Counters measured where the work happens, outside the span's own interval."""
        if name == "quantizer.lookup_indices":
            x = args[1] if len(args) > 1 else kwargs["x"]
            self.counts["lookup_elements"] += getattr(x, "size", 1)
        elif name == "outliers.quantize_mixed":
            self.counts["rows_kept"] += int(result.outlier_dims.size)
        elif name == "store.write_kbq":
            self.counts["kbq_bytes"] += os.path.getsize(args[1])
            self.counts["kbq_payload_bytes"] += _payload_bytes(args[0])

    @contextlib.contextmanager
    def installed(self):
        """Trace every target for the duration of the block."""
        patched = []
        try:
            for mod, fns in TARGETS.items():
                module = importlib.import_module(f"kbitq.{mod}")
                for fn in fns:
                    original = getattr(module, fn)
                    wrapper = self._wrap(f"{mod}.{fn}", original)
                    for holder in _kbitq_modules():
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, attr, wrapper)
                                patched.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)

    def self_times(self, runs) -> dict[str, float]:
        """Self seconds per span name over the given run ids."""
        runs = set(runs)
        own: Counter = Counter()
        for span in self.spans:
            if span is not None and span.run in runs:
                own[span.name] += span.end - span.start
                if span.parent is not None:
                    parent = self.spans[span.parent]
                    own[parent.name] -= span.end - span.start
        return dict(own)

    def top_level_seconds(self, run: int) -> float:
        """Time inside library spans that no other span encloses, for one run."""
        return sum(s.end - s.start for s in self.spans
                   if s is not None and s.run == run and s.parent is None)

    def calls(self, runs) -> Counter:
        runs = set(runs)
        return Counter(s.name for s in self.spans if s is not None and s.run in runs)

    def records(self) -> list[dict]:
        return [span.as_dict(i) for i, span in enumerate(self.spans) if span is not None]


def _kbitq_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kbitq" or name.startswith("kbitq."))]
