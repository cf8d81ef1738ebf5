"""Seeded benchmark of the kbitq CLI, end to end and per module.

    python3 perfbench/run.py --workload single-int4 --seed 1 --seconds 30 --trace 0

Set-up draws the workload's inputs from the seed with `kbitq.synth` and
writes them as containers; the program under test sees only those files.
The loop is closed: one client runs one command at a time and waits for
it, so at most one busy kbitq process exists.

After set-up, one untimed warm-up repeat runs; the timed repeats follow
for `--seconds`. `--trace 0` runs every command as a fresh
`python -m kbitq` subprocess, times a reference kernel before each repeat,
and reports the end-to-end metrics. `--trace 1` calls `cli.main` in this
process, alternating untraced and traced repeats, then makes one pass
under tracemalloc, and reports the per-layer metrics. Every output is
checked by `checks.py`, which shares no code with kbitq; a non-zero exit,
malformed stdout or a failed check counts the command as failed.

The last line of stdout is the result as one JSON object. A full report
(run metadata, output digests, every repeat) goes to
`.perfbench/results/` under the repository root. Timings are
warm-page-cache numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads
from tracer import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
REF_ELEMENTS = 1 << 24  # elements the reference kernel processes per measurement
COMMAND_TIMEOUT_S = 150
PAGE_CACHE = ("warm: inputs are written during set-up and every command reads them from the "
              "OS page cache; cold-cache numbers are not measured, because that needs dropping "
              "caches or pinning CPUs, which the benchmark does not do")

END_TO_END = {
    "setup_s": "s",
    "elem_rate_vs_ref": "ratio",
    "peak_rss_mb": "MB",
    "bits_per_param": "bit",
}
# Self time of every traced function, plus the counters the README maps to metrics.
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    "quantizer.lookup_indices.elem_per_s": "1/s",
    "quantizer.unpack_indices.calls": "count",
    "codebooks.build_quantile_codebook.calls": "count",
    "accounting.error_metrics.calls": "count",
    "quantizer.quantize.peak_mb": "MB",
    "quantizer.dequantize.peak_mb": "MB",
    "quantizer.sweep.peak_mb": "MB",
    "outliers.rows_kept": "count",
    "store.kbq_bytes": "B",
    "store.kbq_payload_ratio": "ratio",
    "cli.self_s": "s",
    "cli.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Command:
    """One kbitq invocation and what it cost."""

    argv: list[str]
    code: int
    wall_s: float
    stdout: str
    stderr: str
    peak_rss_mb: float | None = None
    traced_mb: float | None = None
    run: int | None = None


def run_subprocess(argv: list[str], cwd: Path) -> Command:
    """`python -m kbitq ARGV` as a fresh process; peak RSS comes from wait4."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "kbitq", *argv], stdout=out, stderr=err,
                                env=env, cwd=cwd)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(argv, proc.returncode, wall, out_path.read_text(), err_path.read_text(),
                   peak_rss_mb=usage.ru_maxrss / 1024)


def run_inprocess(argv: list[str], tracer: Tracer | None = None,
                  trace_memory: bool = False) -> Command:
    """`cli.main(ARGV)` in this process, optionally traced or under tracemalloc."""
    from kbitq import cli

    out, err = io.StringIO(), io.StringIO()
    run = None
    if tracer is not None:
        tracer.run += 1
        run = tracer.run
    if trace_memory:
        tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # the CLI must never raise; count it as a failed command
                traceback.print_exc()
                code = -1
            wall = perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] / 2**20 if trace_memory else None
    finally:
        if trace_memory:
            tracemalloc.stop()
    return Command(argv, code, wall, out.getvalue(), err.getvalue(), traced_mb=peak, run=run)


class Reference:
    """A fixed numpy kernel timed before every repeat: a yardstick for the machine's speed.

    On a shared machine the speed of memory-bound numpy code drifts by 10-20%
    over minutes, and kbitq's throughput drifts with it. Dividing kbitq's
    throughput by this kernel's, measured next to it, cancels most of that
    drift. The kernel makes the quantizer's kinds of passes (block absmax,
    normalization, sorted-code search, bit packing, an error sum) over an
    array as large as the workload's largest tensor.
    """

    def __init__(self, n: int) -> None:
        self.x = np.random.default_rng(0).standard_normal(max(64, n - n % 64))
        self.codes = np.linspace(-1.0, 1.0, 15)
        self.reps = max(1, REF_ELEMENTS // self.x.size)

    def elem_per_s(self) -> float:
        start = perf_counter()
        for _ in range(self.reps):
            blocks = self.x.reshape(-1, 64)
            y = (blocks / np.abs(blocks).max(axis=1, keepdims=True)).ravel()
            idx = np.searchsorted(self.codes, y)
            np.minimum(idx, self.codes.size - 1, out=idx)
            err = y - self.codes[idx]
            np.packbits(idx.astype(np.uint8) & 1)
            float(err @ err)
        return self.reps * self.x.size / (perf_counter() - start)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Session:
    """The workload's files, its checks, and the count of commands attempted and failed.

    The first repeat of each output gets every check; later repeats must be
    byte-identical to it (determinism) and inherit its verdict.
    """

    def __init__(self, workload: workloads.Workload, seed: int, inputs: dict, work: Path,
                 blocks_per_tensor: int) -> None:
        self.w = workload
        self.inputs = inputs
        self.elements = sum(a.size for a in inputs.values())
        self.input = work / "input.st"
        self.kbq = work / "model.kbq"
        self.decoded = work / "decoded.st"
        self.checks = checks.FileChecks(workload, inputs, seed, blocks_per_tensor)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, list[str]] = {}
        self.quality: dict[str, float] = {}

    def record(self, op: str, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures += [f"{op}: {msg}" for msg in fails[:5]]

    def _verdict(self, key: str, digest: str, full_check) -> list[str]:
        if key not in self.digests:
            self.digests[key] = digest
            try:
                self.verdicts[key] = full_check()
            except Exception as exc:  # a crash in a check is a failed check, not a lost run
                self.verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
            return self.verdicts[key]
        if digest != self.digests[key]:
            return [f"{key} differs from the first repeat (sha256 {digest[:12]} vs "
                    f"{self.digests[key][:12]})"]
        return self.verdicts[key]

    @staticmethod
    def _status(cmd: Command) -> list[str]:
        if cmd.code != 0:
            return [f"exit {cmd.code}: {cmd.stderr.strip()[-300:]}"]
        return []

    def _json(self, cmd: Command, keys: tuple[str, ...]) -> tuple[dict, list[str]]:
        fails = self._status(cmd)
        if fails:
            return {}, fails
        try:
            payload = json.loads(cmd.stdout)
        except json.JSONDecodeError as exc:
            return {}, [f"stdout is not JSON: {exc}"]
        if not isinstance(payload, dict) or any(k not in payload for k in keys):
            return {}, [f"stdout lacks {keys}"]
        return payload, []

    def cycle(self, run, mutate_kbq=None) -> dict[str, Command]:
        """One repeat of the workload's commands through `run(argv) -> Command`."""
        if self.w.kind == "sweep":
            cmd = run(self.w.sweep_argv(self.input))
            fails = self._status(cmd)
            if not fails:
                digest = hashlib.sha256(cmd.stdout.encode()).hexdigest()
                fails = self._verdict("sweep_csv", digest, lambda: self._check_sweep(cmd.stdout))
            self.record("sweep", fails)
            return {"sweep": cmd}
        q = run(self.w.quantize_argv(self.input, self.kbq))
        summary, fails = self._json(q, ("output", "tensors", "total_model_bits"))
        if mutate_kbq is not None and not fails:
            mutate_kbq(self.kbq)
        if not fails:
            fails = self._verdict("kbq", sha256(self.kbq),
                                  lambda: self.checks.check_quantize(self.kbq, summary))
            self.quality["bits_per_param"] = 8 * self.kbq.stat().st_size / self.elements
        self.record("quantize", fails)
        d = run(self.w.dequantize_argv(self.kbq, self.decoded))
        summary, fails = self._json(d, ("output", "tensors"))
        if not fails:
            fails = self._verdict("decoded", sha256(self.decoded),
                                  lambda: self._check_decoded(summary))
        self.record("dequantize", fails)
        return {"quantize": q, "dequantize": d}

    def _check_decoded(self, summary: dict) -> list[str]:
        fails, snr = self.checks.check_dequantize(self.decoded, summary)
        self.quality["recon_snr_db"] = snr
        return fails

    def _check_sweep(self, text: str) -> list[str]:
        fails = checks.check_sweep(self.w, self.elements, text)
        if not fails:
            rows = [dict(zip(checks.SWEEP_COLUMNS.split(","), line.split(",")))
                    for line in text.splitlines()[1:]]
            self.quality["bits_per_param"] = statistics.fmean(
                float(r["bits_per_param"]) for r in rows)
        return fails

    def work_items(self) -> int:
        """Elements taken through quantize and decode by one repeat."""
        return self.elements * (len(self.w.grid()) if self.w.kind == "sweep" else 1)


def setup(workload: workloads.Workload, seed: int, work: Path) -> tuple[dict, float]:
    """Draw the inputs and write the container; returns (inputs, seconds)."""
    start = perf_counter()
    inputs = workload.make_inputs(seed)
    workloads.write_container(work / "input.st", inputs)
    return inputs, perf_counter() - start


def summarize(values) -> dict:
    values = [float(v) for v in values]
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "values": values}


def end_to_end(session: Session, setup_times: list[float], cycles: list[dict],
               ref_rates: list[float]) -> tuple[dict, dict]:
    """The gated metrics, plus the per-command figures the report carries alongside."""
    walls = {op: [c[op].wall_s for c in cycles] for op in cycles[0]}
    rss = {op: [c[op].peak_rss_mb for c in cycles] for op in cycles[0]}
    items = session.work_items()
    rates = [items / sum(cmd.wall_s for cmd in c.values()) for c in cycles]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "elem_rate_vs_ref": statistics.median(r / ref for r, ref in zip(rates, ref_rates)),
        "peak_rss_mb": statistics.median(max(c[op].peak_rss_mb for op in c) for c in cycles),
        "bits_per_param": session.quality.get("bits_per_param", float("nan")),
    }
    detail = {"error_rate": session.failed / max(session.attempted, 1),
              "elem_per_s": summarize(rates), "ref_elem_per_s": summarize(ref_rates)}
    for op in walls:
        detail[f"{op}_elem_per_s"] = summarize(items / t for t in walls[op])
        detail[f"{op}_wall_s"] = summarize(walls[op])
        detail[f"{op}_peak_rss_mb"] = summarize(rss[op])
    if session.w.kind == "file":
        detail["kbq_bits_per_param"] = metrics["bits_per_param"]
        detail["recon_snr_db"] = session.quality.get("recon_snr_db", float("nan"))
    return metrics, detail


def layer_metrics(tracer: Tracer, traced: dict[str, Command], untraced: dict[str, Command],
                  ) -> dict[str, float]:
    """Per-layer figures of one traced repeat, summed over its commands."""
    runs = [cmd.run for cmd in traced.values()]
    own = tracer.self_times(runs)
    calls = tracer.calls(runs)
    counts = tracer.counts
    wall = sum(cmd.wall_s for cmd in traced.values())
    lookup_s = own.get("quantizer.lookup_indices", 0.0)
    metrics = {f"{name}.self_s": own.get(name, 0.0) for name in SPAN_NAMES}
    metrics.update({
        "quantizer.lookup_indices.elem_per_s":
            counts["lookup_elements"] / lookup_s if lookup_s > 0 else 0.0,
        "quantizer.unpack_indices.calls": calls["quantizer.unpack_indices"],
        "codebooks.build_quantile_codebook.calls": calls["codebooks.build_quantile_codebook"],
        "accounting.error_metrics.calls": calls["accounting.error_metrics"],
        "outliers.rows_kept": counts["rows_kept"],
        "store.kbq_bytes": counts["kbq_bytes"],
        "store.kbq_payload_ratio":
            counts["kbq_payload_bytes"] / counts["kbq_bytes"] if counts["kbq_bytes"] else 0.0,
        "cli.self_s": sum(cmd.wall_s - tracer.top_level_seconds(cmd.run)
                          for cmd in traced.values()),
        "cli.wall_s": wall,
        "trace.overhead_ratio": wall / sum(cmd.wall_s for cmd in untraced.values()),
    })
    return metrics


def closure_error_s(tracer: Tracer, traced: dict[str, Command]) -> float:
    """Largest |sum of span self times + cli self time - wall| over the repeat's commands."""
    worst = 0.0
    for cmd in traced.values():
        spans = sum(tracer.self_times([cmd.run]).values())
        cli_self = cmd.wall_s - tracer.top_level_seconds(cmd.run)
        worst = max(worst, abs(spans + cli_self - cmd.wall_s))
    return worst


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tree_sha256(root: Path) -> str:
    """Digest of every .py file under `root`; identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "git_sha": git_sha(), "src_sha256": tree_sha256(SRC),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "page_cache": PAGE_CACHE,
        "loop": "closed: one client, one command at a time",
    }


def measure(args, work: Path, mutate_kbq=None) -> tuple[dict, dict]:
    """Run the workload; returns (result line, full report)."""
    workload = workloads.get(args.workload, smoke=args.smoke)
    blocks = 64 if args.smoke else 512
    report = {"metadata": metadata(args)}
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        inputs, setup_s = setup(workload, args.seed, work)
        setup_times.append(setup_s)
    runner = run_inprocess if args.trace else lambda argv: run_subprocess(argv, work)
    session = Session(workload, args.seed, inputs, work, blocks)
    report["setup_s"] = summarize(setup_times)

    # The first repeat after set-up runs slower (it also compiles and caches the
    # program's modules); it gets every check but no timing.
    warm_up = session.cycle(runner, mutate_kbq)
    report["warm_up_wall_s"] = {op: cmd.wall_s for op, cmd in warm_up.items()}
    deadline = perf_counter() + args.seconds
    if not args.trace:
        reference = Reference(max(a.size for a in inputs.values()))
        reference.elem_per_s()  # untimed, like the warm-up repeat
        cycles, ref_rates = [], []
        while not cycles or perf_counter() < deadline:
            ref_rates.append(reference.elem_per_s())
            cycles.append(session.cycle(runner))
        metrics, detail = end_to_end(session, setup_times, cycles, ref_rates)
        units = END_TO_END
    else:
        tracer = Tracer()
        per_cycle, closure = [], 0.0
        while not per_cycle or perf_counter() < deadline:
            untraced = session.cycle(runner)
            tracer.counts.clear()
            with tracer.installed():
                traced = session.cycle(lambda argv: run_inprocess(argv, tracer))
            per_cycle.append(layer_metrics(tracer, traced, untraced))
            closure = max(closure, closure_error_s(tracer, traced))
        memory = session.cycle(lambda argv: run_inprocess(argv, trace_memory=True))
        metrics = {name: statistics.median(c[name] for c in per_cycle) for name in per_cycle[0]}
        for op in ("quantize", "dequantize", "sweep"):
            metrics[f"quantizer.{op}.peak_mb"] = memory[op].traced_mb if op in memory else 0.0
        detail = {"per_repeat": per_cycle, "closure_error_s": closure,
                  "error_rate": session.failed / max(session.attempted, 1)}
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        spans_path = WORK / "results" / f"spans_{args.workload}_seed{args.seed}.jsonl"
        spans_path.write_text("".join(json.dumps(r) + "\n" for r in tracer.records()))
        report["spans"] = str(spans_path.relative_to(ROOT))
        units = PER_LAYER

    report.update({
        "metrics": metrics, "detail": detail, "digests": session.digests,
        "attempted": session.attempted, "failed": session.failed, "failures": session.failures,
    })
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        # A value a failed run could not measure reads 0; such a run is not correct anyway.
        "metrics": {name: {"value": finite_or_zero(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report


def finite_or_zero(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kbitq" / "__init__.py").is_file():
        print(f"perfbench: no kbitq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kbitq

    if Path(kbitq.__file__).resolve().parent != (SRC / "kbitq").resolve():
        print(f"perfbench: imported kbitq from {kbitq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    report_path = WORK / "results" / (
        f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    for line in report["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    for key, digest in report["digests"].items():
        print(f"perfbench: sha256 {key} {digest}", file=sys.stderr)
    print(f"perfbench: warm-page-cache numbers; report in {report_path.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
